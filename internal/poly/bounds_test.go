package poly

import (
	"math"
	"math/rand"
	"testing"

	"tilespace/internal/ilin"
	"tilespace/internal/rat"
)

// rationalBounds is the oracle: max ⌈L(x)⌉ and min ⌊U(x)⌋ evaluated in
// exact rationals. ok is false when the rational evaluation itself
// overflows (rat panics), where no answer is defined.
func rationalBounds(vb *VarBounds, x []int64) (lo, hi int64, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	lo, hi = math.MinInt64, math.MaxInt64
	for _, a := range vb.Lower {
		lo = max(lo, a.Eval(x).Ceil())
	}
	for _, a := range vb.Upper {
		hi = min(hi, a.Eval(x).Floor())
	}
	return lo, hi, true
}

// fallbacks counts the bounds of vb at x that cannot be evaluated in
// int64: rows without an integer form, or whose numerator overflows.
func fallbacks(vb *VarBounds, x []int64) int {
	count := 0
	for _, rows := range [][]intRow{vb.lower, vb.upper} {
		for i := range rows {
			r := &rows[i]
			if _, ok := r.num(r.cnst, x, 0, len(r.coef)); !ok || r.den == 0 {
				count++
			}
		}
	}
	return count
}

// checkAgainstOracle compares the compiled evaluations of level k —
// EvalLower/EvalUpper, and Hoist+EvalHoisted for every split point m —
// with the rational oracle at the prefix x[:k]. It returns whether the
// oracle was defined there.
func checkAgainstOracle(t *testing.T, vb *VarBounds, x []int64) bool {
	t.Helper()
	wantLo, wantHi, ok := rationalBounds(vb, x)
	if !ok {
		return false
	}
	lo, okL := vb.EvalLower(x)
	hi, okU := vb.EvalUpper(x)
	if !okL || !okU || lo != wantLo || hi != wantHi {
		t.Fatalf("bounds %v at %v: compiled [%d, %d], rational [%d, %d]", vb.Lower, x, lo, hi, wantLo, wantHi)
	}
	h := make([]int64, vb.Rows())
	for m := 0; m <= len(x); m++ {
		if !vb.Hoist(x, m, h) {
			continue
		}
		if lo, hi, ok := vb.EvalHoisted(h, x, m); ok && (lo != wantLo || hi != wantHi) {
			t.Fatalf("bounds at %v hoisted at %d: [%d, %d], rational [%d, %d]", x, m, lo, hi, wantLo, wantHi)
		}
		for j := m; j < len(x); j++ {
			checkWalk(t, vb, h, x, m, j)
		}
	}
	return true
}

// checkWalk steps vb's bounds along x_j from x and compares every point
// of the walk with the rational oracle.
func checkWalk(t *testing.T, vb *VarBounds, h, x []int64, m, j int) {
	t.Helper()
	const points = 5
	st := make([]int64, vb.WalkLen())
	if !vb.StartWalk(h, x, m, j, points, st) {
		return
	}
	y := append([]int64(nil), x...)
	for p := 0; p < points; p++ {
		lo, hi := vb.Next(st)
		wantLo, wantHi, ok := rationalBounds(vb, y)
		if ok && (lo != wantLo || hi != wantHi) {
			t.Fatalf("walk along x%d from %v, point %v: [%d, %d], rational [%d, %d]", j, x, y, lo, hi, wantLo, wantHi)
		}
		y[j]++
	}
}

func randRat(rng *rand.Rand, num, den int) rat.Rat {
	return rat.New(int64(rng.Intn(2*num+1)-num), int64(rng.Intn(den)+1))
}

// TestCompiledBoundsMatchRational: on random bounded systems from
// LoopBounds and random integer prefixes (inside and outside the
// polyhedron), the integer-compiled bounds equal ⌈Affine.Eval⌉ and
// ⌊Affine.Eval⌋. Every fourth trial scales its prefixes up until
// numerators overflow int64, so the rational fallback answers.
func TestCompiledBoundsMatchRational(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	rng := rand.New(rand.NewSource(20261017))
	checked, fellBack := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(2)
		big := trial%4 == 3
		boxHi := int64(6 + rng.Intn(10))
		s := NewSystem(n)
		for k := 0; k < n; k++ {
			s.AddRange(k, -boxHi, boxHi)
		}
		for c := rng.Intn(3) + 1; c > 0; c-- {
			coef := make(ilin.RatVec, n)
			for i := range coef {
				coef[i] = randRat(rng, 4, 6)
			}
			s.Add(NewConstraint(coef, rat.FromInt(boxHi/2)))
		}
		nb, err := LoopBounds(s)
		if err != nil {
			continue
		}
		for p := 0; p < 20; p++ {
			x := make([]int64, n)
			for i := range x {
				x[i] = rng.Int63n(4*boxHi+1) - 2*boxHi
				if big {
					// Powers of two near 2^62 overflow the integer
					// numerators; the rational form cross-cancels the
					// even denominators and often still evaluates.
					x[i] <<= 55 + rng.Intn(4)
				}
			}
			for k := 0; k < n; k++ {
				vb := &nb.Vars[k]
				if checkAgainstOracle(t, vb, x[:k]) {
					checked++
					if fallbacks(vb, x[:k]) > 0 {
						fellBack++
					}
				}
			}
		}
	}
	if checked < trials {
		t.Fatalf("only %d oracle comparisons", checked)
	}
	if fellBack == 0 {
		t.Fatal("no comparison exercised the overflow fallback")
	}
	t.Logf("%d oracle comparisons, %d through the fallback", checked, fellBack)
}

// TestCompiledBoundsOverflowFallback pins the two fallback paths: a row
// whose common denominator does not fit in int64 (never compiled), and a
// compiled row whose numerator overflows at a prefix the rational form
// still evaluates by cross-cancelling.
func TestCompiledBoundsOverflowFallback(t *testing.T) {
	const p1, p2 = 4294967311, 4294967357 // primes; p1·p2 > 2^63
	wide := NewVarBounds(
		[]Affine{{Coef: ilin.RatVec{rat.New(1, p1), rat.New(1, p2)}, Const: rat.Zero}},
		[]Affine{{Coef: ilin.RatVec{rat.New(1, p1), rat.New(1, p2)}, Const: rat.FromInt(5)}},
	)
	if wide.lower[0].den != 0 || wide.upper[0].den != 0 {
		t.Fatal("rows with an int64-overflowing denominator should stay rational")
	}
	if !checkAgainstOracle(t, &wide, []int64{3 * p1, -2 * p2}) {
		t.Fatal("oracle undefined")
	}
	if h := make([]int64, wide.Rows()); wide.Hoist([]int64{p1, p2}, 1, h) {
		t.Fatal("Hoist should refuse rows without an integer form")
	}

	// x1 ≤ 3·x0/2^40 compiles to (3·x0)/2^40, which overflows at x0 = 2^62.
	tall := NewVarBounds(
		[]Affine{{Coef: ilin.RatVec{rat.Zero}, Const: rat.Zero}},
		[]Affine{{Coef: ilin.RatVec{rat.New(3, 1<<40)}, Const: rat.New(1, 3)}},
	)
	x := []int64{1 << 62}
	if fallbacks(&tall, x) != 1 {
		t.Fatal("expected the upper row's numerator to overflow")
	}
	if !checkAgainstOracle(t, &tall, x) {
		t.Fatal("oracle undefined")
	}
	if hi, _ := tall.EvalUpper(x); hi != 3<<22 {
		t.Fatalf("EvalUpper = %d, want %d", hi, 3<<22)
	}
	h := make([]int64, tall.Rows())
	if tall.Hoist(x, 1, h) {
		t.Fatal("Hoist should report the overflowing prefix")
	}
	if !tall.Hoist(x, 0, h) {
		t.Fatal("Hoist of the empty prefix cannot overflow")
	}
	if _, _, ok := tall.EvalHoisted(h, x, 0); ok {
		t.Fatal("EvalHoisted should report the overflowing numerator")
	}

	// x1 ≤ 2^61·x0 walked along x0 from 0: the quotient reaches 2^63
	// after four steps, so a five-point walk must be refused.
	steep := NewVarBounds(
		[]Affine{{Coef: ilin.RatVec{rat.Zero}, Const: rat.Zero}},
		[]Affine{{Coef: ilin.RatVec{rat.FromInt(1 << 61)}, Const: rat.Zero}},
	)
	st := make([]int64, steep.WalkLen())
	h = make([]int64, steep.Rows())
	steep.Hoist([]int64{0}, 0, h)
	if !steep.StartWalk(h, []int64{0}, 0, 0, 3, st) {
		t.Fatal("a three-point walk stays below 2^63")
	}
	if steep.StartWalk(h, []int64{0}, 0, 0, 5, st) {
		t.Fatal("StartWalk should refuse a walk whose quotient overflows")
	}
}

func TestUncompiledVarBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("evaluating a VarBounds literal should panic")
		}
	}()
	vb := VarBounds{Lower: []Affine{{Const: rat.One}}}
	vb.EvalLower(nil)
}

// TestEvalBoundsZeroAlloc: evaluating compiled bounds — directly, hoisted,
// walked, and through the rational fallback — allocates nothing, so point
// counting never touches the heap.
func TestEvalBoundsZeroAlloc(t *testing.T) {
	s := box2(0, 40, 0, 30)
	s.Add(NewConstraint(ilin.RatVec{rat.New(1, 3), rat.New(2, 5)}, rat.New(31, 2)))
	nb, err := LoopBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	tall := NewVarBounds(
		[]Affine{{Coef: ilin.RatVec{rat.Zero}, Const: rat.Zero}},
		[]Affine{{Coef: ilin.RatVec{rat.New(3, 1<<40)}, Const: rat.Zero}},
	)
	x, big := []int64{7}, []int64{1 << 62}
	h := make([]int64, nb.Vars[1].Rows())
	st := make([]int64, nb.Vars[1].WalkLen())
	var sink int64
	if allocs := testing.AllocsPerRun(100, func() {
		lo, _ := nb.Vars[1].EvalLower(x)
		hi, _ := nb.Vars[1].EvalUpper(x)
		flo, _ := tall.EvalLower(big)
		fhi, _ := tall.EvalUpper(big)
		nb.Vars[1].Hoist(x, 1, h)
		hlo, hhi, _ := nb.Vars[1].EvalHoisted(h, x, 1)
		nb.Vars[1].StartWalk(h, x, 0, 0, 2, st)
		wlo, whi := nb.Vars[1].Next(st)
		sink += lo + hi + flo + fhi + hlo + hhi + wlo + whi
	}); allocs != 0 {
		t.Fatalf("bound evaluation allocates %.1f times per round, want 0", allocs)
	}
	_ = sink
}

// TestPrefixBoundingBoxMatchesFull: restricting the box to a prefix of
// the variables gives the full box's first entries.
func TestPrefixBoundingBoxMatchesFull(t *testing.T) {
	s := NewSystem(3)
	s.AddRange(0, 0, 9)
	s.AddRange(1, -2, 7)
	s.AddRange(2, 0, 5)
	s.Add(NewConstraint(ilin.RatVec{rat.One, rat.New(1, 2), rat.New(-1, 3)}, rat.FromInt(8)))
	s.Add(GE(ilin.RatVec{rat.One, rat.FromInt(-1), rat.One}, rat.FromInt(-3)))
	lo, hi, err := BoundingBox(s)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m <= 3; m++ {
		plo, phi, err := PrefixBoundingBox(s, m)
		if err != nil {
			t.Fatal(err)
		}
		if !plo.Equal(lo[:m]) || !phi.Equal(hi[:m]) {
			t.Errorf("prefix %d: box %v..%v, full %v..%v", m, plo, phi, lo, hi)
		}
	}
}
