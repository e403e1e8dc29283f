package poly

import (
	"fmt"
	"math"
	"strings"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// Affine is an affine expression Coef·x + Const over a prefix of the loop
// variables. Bounds for loop level k only reference x_0 … x_{k-1}.
type Affine struct {
	Coef  ilin.RatVec
	Const rat.Rat
}

// Eval returns the rational value of the expression at the integer prefix
// x (only the first len(Coef) entries are read; trailing zero coefficients
// are skipped).
func (a Affine) Eval(x []int64) rat.Rat {
	s := a.Const
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		s = s.Add(c.MulInt(x[i]))
	}
	return s
}

func (a Affine) String() string {
	var b strings.Builder
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%v·x%d", c, i)
	}
	if b.Len() == 0 || !a.Const.IsZero() {
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(a.Const.String())
	}
	return b.String()
}

// VarBounds holds the affine lower and upper bounds of one loop variable:
//
//	x_k ≥ ⌈L(x)⌉ for every L in Lower   (effective bound: max)
//	x_k ≤ ⌊U(x)⌋ for every U in Upper   (effective bound: min)
//
// Build it with NewVarBounds, which compiles every bound once into an
// integer row (Coef·x + Const)/Den over the row's common denominator, the
// form the paper's generated code evaluates. EvalLower/EvalUpper use the
// integer rows; the rational Affine forms remain the source of truth for
// code generation and the fallback for a row whose integer numerator would
// overflow int64.
type VarBounds struct {
	Lower []Affine
	Upper []Affine

	lower, upper []intRow // compiled Lower/Upper, index-aligned
}

// NewVarBounds returns the bounds with their integer rows compiled.
func NewVarBounds(lower, upper []Affine) VarBounds {
	vb := VarBounds{Lower: lower, Upper: upper}
	vb.lower = make([]intRow, len(lower))
	for i, a := range lower {
		vb.lower[i] = compileRow(a)
	}
	vb.upper = make([]intRow, len(upper))
	for i, a := range upper {
		vb.upper[i] = compileRow(a)
	}
	return vb
}

// intRow is an Affine bound compiled to integers: its value at x is
// (coef·x + cnst)/den with den > 0. den == 0 marks a row whose integer form
// does not fit in int64; it is always evaluated from its rational source.
type intRow struct {
	coef []int64
	cnst int64
	den  int64
}

func compileRow(a Affine) intRow {
	den := a.Const.Den
	for _, c := range a.Coef {
		if c.IsZero() {
			continue // as in Eval: zero coefficients, even Rat{}, are skipped
		}
		g := rat.Gcd64(den, c.Den)
		l, ok := rat.MulInt64(den/g, c.Den)
		if !ok {
			return intRow{}
		}
		den = l
	}
	scale := func(r rat.Rat) (int64, bool) { return rat.MulInt64(r.Num, den/r.Den) }
	cnst, ok := scale(a.Const)
	if !ok {
		return intRow{}
	}
	coef := make([]int64, len(a.Coef))
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		if coef[i], ok = scale(c); !ok {
			return intRow{}
		}
	}
	return intRow{coef: coef, cnst: cnst, den: den}
}

// num returns s + Σ_{from≤i<to} coef_i·x_i (to is capped at len(coef));
// ok is false on int64 overflow.
func (r *intRow) num(s int64, x []int64, from, to int) (int64, bool) {
	to = min(to, len(r.coef))
	for i := from; i < to; i++ {
		c := r.coef[i]
		if c == 0 {
			continue
		}
		p, ok := rat.MulInt64(c, x[i])
		if !ok {
			return 0, false
		}
		if s, ok = rat.AddInt64(s, p); !ok {
			return 0, false
		}
	}
	return s, true
}

func (r *intRow) ceil(v int64) int64 {
	if r.den == 1 {
		return v
	}
	return rat.CeilDiv(v, r.den)
}

func (r *intRow) floor(v int64) int64 {
	if r.den == 1 {
		return v
	}
	return rat.FloorDiv(v, r.den)
}

func (vb *VarBounds) mustBeCompiled() {
	if len(vb.lower) != len(vb.Lower) || len(vb.upper) != len(vb.Upper) {
		panic("poly: VarBounds not built by NewVarBounds")
	}
}

// EvalLower returns max_k ⌈L_k(x)⌉; ok is false when there is no lower
// bound (the variable is unbounded below in the polyhedron).
func (vb *VarBounds) EvalLower(x []int64) (int64, bool) {
	if len(vb.Lower) == 0 {
		return 0, false
	}
	vb.mustBeCompiled()
	best := int64(math.MinInt64)
	for i := range vb.lower {
		r := &vb.lower[i]
		var v int64
		if n, ok := r.num(r.cnst, x, 0, len(r.coef)); ok && r.den != 0 {
			v = r.ceil(n)
		} else {
			v = vb.Lower[i].Eval(x).Ceil()
		}
		best = max(best, v)
	}
	return best, true
}

// EvalUpper returns min_k ⌊U_k(x)⌋; ok is false when there is no upper
// bound.
func (vb *VarBounds) EvalUpper(x []int64) (int64, bool) {
	if len(vb.Upper) == 0 {
		return 0, false
	}
	vb.mustBeCompiled()
	best := int64(math.MaxInt64)
	for i := range vb.upper {
		r := &vb.upper[i]
		var v int64
		if n, ok := r.num(r.cnst, x, 0, len(r.coef)); ok && r.den != 0 {
			v = r.floor(n)
		} else {
			v = vb.Upper[i].Eval(x).Floor()
		}
		best = min(best, v)
	}
	return best, true
}

// Rows returns the number of bounds, lower and upper together: the length
// of the buffer Hoist fills.
func (vb *VarBounds) Rows() int { return len(vb.Lower) + len(vb.Upper) }

// Hoist evaluates the part of every bound's integer numerator that depends
// only on the fixed prefix x[:m] — h[i] = Const_i + Σ_{j<m} Coef_ij·x_j,
// lower bounds first, then upper — so that a loop over the remaining
// variables pays only for their terms (EvalHoisted). It returns false when
// some bound has no integer form or its prefix sum overflows; the caller
// then evaluates with EvalLower/EvalUpper.
func (vb *VarBounds) Hoist(x []int64, m int, h []int64) bool {
	vb.mustBeCompiled()
	return hoistRows(vb.lower, x, m, h) && hoistRows(vb.upper, x, m, h[len(vb.lower):])
}

func hoistRows(rows []intRow, x []int64, m int, h []int64) bool {
	for i := range rows {
		r := &rows[i]
		if r.den == 0 {
			return false
		}
		var ok bool
		if h[i], ok = r.num(r.cnst, x, 0, m); !ok {
			return false
		}
	}
	return true
}

// EvalHoisted returns max_k ⌈L_k(x)⌉ and min_k ⌊U_k(x)⌋ from the prefix
// sums h of a Hoist(x, m, h) that returned true; x[:m] must be unchanged
// since. ok is false when a numerator overflows; the caller then
// evaluates with EvalLower/EvalUpper.
func (vb *VarBounds) EvalHoisted(h, x []int64, m int) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for i := range vb.lower {
		r := &vb.lower[i]
		n, ok := r.num(h[i], x, m, len(r.coef))
		if !ok {
			return 0, 0, false
		}
		lo = max(lo, r.ceil(n))
	}
	h = h[len(vb.lower):]
	for i := range vb.upper {
		r := &vb.upper[i]
		n, ok := r.num(h[i], x, m, len(r.coef))
		if !ok {
			return 0, 0, false
		}
		hi = min(hi, r.floor(n))
	}
	return lo, hi, true
}

// WalkLen is the length of the state buffer StartWalk fills: four words
// per bound.
func (vb *VarBounds) WalkLen() int { return 4 * vb.Rows() }

// StartWalk prepares st (WalkLen words) for points calls of Next, which
// visit x and then x_j + 1, x_j + 2, … with the other variables fixed; h
// holds the prefix sums of a Hoist(x, m, h) that returned true (j ≥ m).
// Each bound carries its value as quotient and remainder over its
// denominator, so Next advances it with additions only. It returns false
// when a numerator overflows at x or a quotient could overflow along the
// walk; the caller then evaluates point by point.
func (vb *VarBounds) StartWalk(h, x []int64, m, j int, points int64, st []int64) bool {
	return startRows(vb.lower, h, x, m, j, points, st) &&
		startRows(vb.upper, h[len(vb.lower):], x, m, j, points, st[4*len(vb.lower):])
}

func startRows(rows []intRow, h, x []int64, m, j int, steps int64, st []int64) bool {
	for i := range rows {
		r := &rows[i]
		n, ok := r.num(h[i], x, m, len(r.coef))
		if !ok || r.den > math.MaxInt64/2 {
			return false
		}
		var step int64
		if j < len(r.coef) {
			step = r.coef[j]
		}
		q, dq := rat.FloorDiv(n, r.den), rat.FloorDiv(step, r.den)
		// After t steps the quotient lies in [q + t·dq, q + t·(dq+1)];
		// both ends must fit after the last of the walk's steps.
		if !fitsAfter(q, dq, steps) || dq == math.MaxInt64 || !fitsAfter(q, dq+1, steps) {
			return false
		}
		st[4*i], st[4*i+1] = q, rat.Mod(n, r.den)
		st[4*i+2], st[4*i+3] = dq, rat.Mod(step, r.den)
	}
	return true
}

// fitsAfter reports whether q + steps·d fits in int64.
func fitsAfter(q, d, steps int64) bool {
	p, ok := rat.MulInt64(d, steps)
	if !ok {
		return false
	}
	_, ok = rat.AddInt64(q, p)
	return ok
}

// Next returns max_k ⌈L_k⌉ and min_k ⌊U_k⌋ at the walk's current point
// and advances it one step along x_j.
func (vb *VarBounds) Next(st []int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	for i := range vb.lower {
		w := st[4*i : 4*i+4 : 4*i+4]
		v := w[0]
		if w[1] != 0 {
			v++
		}
		lo = max(lo, v)
		stepRow(w, vb.lower[i].den)
	}
	st = st[4*len(vb.lower):]
	for i := range vb.upper {
		w := st[4*i : 4*i+4 : 4*i+4]
		hi = min(hi, w[0])
		stepRow(w, vb.upper[i].den)
	}
	return lo, hi
}

// stepRow adds (dq, dr) to the row's (q, r), carrying r into [0, den).
func stepRow(w []int64, den int64) {
	w[0] += w[2]
	w[1] += w[3]
	if w[1] >= den {
		w[1] -= den
		w[0]++
	}
}

// NestBounds is the complete loop nest: Vars[k] bounds variable k in terms
// of variables 0 … k-1.
type NestBounds struct {
	N    int
	Vars []VarBounds
}

// LoopBounds runs Fourier–Motzkin elimination innermost-first over the
// system and returns per-level affine bounds. An error is reported when the
// rational polyhedron is detected to be empty or some variable is unbounded
// (iteration spaces must be bounded for tiling).
func LoopBounds(s *System) (*NestBounds, error) {
	cur := s.Clone()
	if !cur.simplify() {
		return nil, fmt.Errorf("poly: empty system")
	}
	nb := &NestBounds{N: s.NVars, Vars: make([]VarBounds, s.NVars)}
	for k := s.NVars - 1; k >= 0; k-- {
		var lower, upper []Affine
		for _, c := range cur.Cons {
			a := c.Coef[k]
			switch a.Sign() {
			case 1:
				// a·x_k ≤ rhs - rest → x_k ≤ (rhs - rest)/a
				coef := c.Coef.Scale(a.Inv().Neg())
				coef[k] = rat.Zero
				upper = append(upper, Affine{Coef: coef[:k].Clone(), Const: c.Rhs.Div(a)})
			case -1:
				// -|a|·x_k ≤ rhs - rest → x_k ≥ (rest - rhs)/|a|
				na := a.Neg()
				coef := c.Coef.Scale(na.Inv())
				coef[k] = rat.Zero
				lower = append(lower, Affine{Coef: coef[:k].Clone(), Const: c.Rhs.Div(na).Neg()})
			}
		}
		if len(lower) == 0 || len(upper) == 0 {
			return nil, fmt.Errorf("poly: variable x%d is unbounded", k)
		}
		nb.Vars[k] = NewVarBounds(lower, upper)
		next, ok := cur.Eliminate(k)
		if !ok {
			return nil, fmt.Errorf("poly: empty system (detected eliminating x%d)", k)
		}
		cur = next
	}
	return nb, nil
}

// Scan enumerates every integer point of the nest in lexicographic order,
// invoking fn with a reusable buffer (fn must copy the point if it retains
// it). fn returning false stops the scan early. Scan returns the number of
// points visited.
//
// Because each level's bounds come from a system that still contains all
// original constraints on that variable, every visited point satisfies the
// original system exactly; no post-filtering is needed.
func (nb *NestBounds) Scan(fn func(x ilin.Vec) bool) int64 {
	x := make(ilin.Vec, nb.N)
	var count int64
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == nb.N {
			count++
			return fn(x)
		}
		lo, okL := nb.Vars[k].EvalLower(x[:k])
		hi, okU := nb.Vars[k].EvalUpper(x[:k])
		if !okL || !okU {
			panic("poly: unbounded variable in Scan")
		}
		for v := lo; v <= hi; v++ {
			x[k] = v
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return count
}

// Count returns the number of integer points in the nest.
func (nb *NestBounds) Count() int64 {
	return nb.Scan(func(ilin.Vec) bool { return true })
}

// HasIntPoint reports whether the nest contains at least one integer point.
func (nb *NestBounds) HasIntPoint() bool {
	found := false
	nb.Scan(func(ilin.Vec) bool {
		found = true
		return false
	})
	return found
}

func (nb *NestBounds) String() string {
	var b strings.Builder
	for k, vb := range nb.Vars {
		fmt.Fprintf(&b, "x%d:", k)
		for _, l := range vb.Lower {
			fmt.Fprintf(&b, "  ≥ ⌈%v⌉", l)
		}
		for _, u := range vb.Upper {
			fmt.Fprintf(&b, "  ≤ ⌊%v⌋", u)
		}
		if k < nb.N-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// BoundingBox returns per-variable integer bounds [lo_k, hi_k] of the
// rational polyhedron, by eliminating all other variables for each k. The
// box is the tightest rational shadow, rounded inward to integers.
func BoundingBox(s *System) (lo, hi ilin.Vec, err error) {
	return PrefixBoundingBox(s, s.NVars)
}

// PrefixBoundingBox is BoundingBox restricted to the first m variables:
// it projects x_m … x_{NVars-1} out once, then each of the m boxes
// eliminates only the other prefix variables. The elimination order is
// the same as BoundingBox's, so the bounds agree with its first m.
func PrefixBoundingBox(s *System, m int) (lo, hi ilin.Vec, err error) {
	tail := s.Clone()
	if !tail.simplify() {
		return nil, nil, fmt.Errorf("poly: empty system")
	}
	for j := s.NVars - 1; j >= m; j-- {
		next, ok := tail.Eliminate(j)
		if !ok {
			return nil, nil, fmt.Errorf("poly: empty system (eliminating x%d)", j)
		}
		tail = next
	}
	lo = make(ilin.Vec, m)
	hi = make(ilin.Vec, m)
	for k := 0; k < m; k++ {
		cur := tail
		for j := m - 1; j >= 0; j-- {
			if j == k {
				continue
			}
			next, ok := cur.Eliminate(j)
			if !ok {
				return nil, nil, fmt.Errorf("poly: empty system (eliminating x%d)", j)
			}
			cur = next
		}
		var lower, upper []Affine
		for _, c := range cur.Cons {
			a := c.Coef[k]
			switch a.Sign() {
			case 1:
				upper = append(upper, Affine{Coef: nil, Const: c.Rhs.Div(a)})
			case -1:
				lower = append(lower, Affine{Coef: nil, Const: c.Rhs.Div(a.Neg()).Neg()})
			}
		}
		vb := NewVarBounds(lower, upper)
		l, okL := vb.EvalLower(nil)
		h, okU := vb.EvalUpper(nil)
		if !okL || !okU {
			return nil, nil, fmt.Errorf("poly: variable x%d is unbounded", k)
		}
		lo[k], hi[k] = l, h
	}
	return lo, hi, nil
}
