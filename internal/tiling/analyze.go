package tiling

import (
	"fmt"
	"sort"

	"tilespace/internal/ilin"
	"tilespace/internal/loopnest"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// TiledSpace is a loop nest together with a legal tiling transformation and
// everything the code generator needs: the combined Fourier–Motzkin bounds
// for tile loops and (boundary-clamped) point loops, the transformed and
// tile-level dependencies, and the compile-time communication vector.
type TiledSpace struct {
	T    *Transform
	Nest *loopnest.Nest

	// Combined holds loop bounds over 2n variables (j^S_1…j^S_n,
	// z_1…z_n): levels 0…n-1 enumerate non-empty-relaxation tiles, levels
	// n…2n-1 enumerate a tile's lattice points with automatic boundary
	// clamping (§2.3: "for boundary tiles these bounds can be corrected
	// using inequalities describing the original iteration space").
	Combined *poly.NestBounds

	// TileLo/TileHi is the integer bounding box of the tile space J^S.
	TileLo, TileHi ilin.Vec

	// DP is D' = H'·D (all entries ≥ 0 for a legal tiling).
	DP *ilin.Mat
	// DS is the tile dependence matrix D^S as a sorted list of distinct
	// nonzero vectors; every component is 0 or 1 (validated).
	DS []ilin.Vec
	// MaxDP[k] = max_l d'_kl.
	MaxDP ilin.Vec
	// CC is the communication vector: cc_k = v_kk − MaxDP[k].
	CC ilin.Vec

	// hoistOff[k] is where point level k's bounds start in CountTilePoints'
	// hoisted-numerator buffer; hoistOff[n] is the buffer length.
	hoistOff []int
	// cornerMax holds one row per space constraint coef·x ≤ rhs:
	// f(j^S) = Σ_j r_j·j^S_j + Σ_j max(r_j, 0) − rhs with r = coef·P, the
	// maximum of coef·x − rhs over the tile cell's 2ⁿ vertices
	// x = P·(j^S + ε), ε ∈ {0,1}ⁿ. The rows are stored as the lower
	// bounds of a VarBounds so they compile to integers with the usual
	// overflow fallback; the cell lies inside the space iff max ⌈f⌉ ≤ 0
	// (⌈f⌉ ≤ 0 ⟺ f ≤ 0).
	cornerMax poly.VarBounds
}

// Analyze validates that h legally tiles the nest and precomputes the
// complete tiled-space description.
func Analyze(nest *loopnest.Nest, h *ilin.RatMat) (*TiledSpace, error) {
	t, err := New(h)
	if err != nil {
		return nil, err
	}
	if t.N != nest.N {
		return nil, fmt.Errorf("tiling: H is %d-dimensional, nest is %d-dimensional", t.N, nest.N)
	}
	if !t.Legal(nest.Deps) {
		return nil, ErrIllegalTransform()
	}
	// Every table is built here, never lazily: a TiledSpace is shared by
	// concurrent readers (the service caches it) and stays immutable once
	// Analyze returns.
	ts := &TiledSpace{T: t, Nest: nest}

	if err := ts.buildCombinedBounds(); err != nil {
		return nil, err
	}

	ts.DP = t.TransformedDeps(nest.Deps)
	ts.MaxDP = t.MaxDepPrime(nest.Deps)
	ts.CC = t.CommVector(nest.Deps)
	for k := 0; k < t.N; k++ {
		if ts.MaxDP[k] > t.V[k] {
			return nil, ErrDependenceReach(ts.MaxDP[k], int64(k), t.V[k])
		}
	}
	if err := ts.computeTileDeps(); err != nil {
		return nil, err
	}
	return ts, nil
}

// MustAnalyze is Analyze that panics on error.
func MustAnalyze(nest *loopnest.Nest, h *ilin.RatMat) *TiledSpace {
	ts, err := Analyze(nest, h)
	if err != nil {
		panic(err)
	}
	return ts
}

// buildCombinedBounds constructs the 2n-variable system
//
//	A·(P·j^S + U·z) ≤ b        (original iteration space)
//	0 ≤ (H̃'·z)_k ≤ v_k − 1    (TTIS box)
//
// and runs Fourier–Motzkin once for both loop levels. The decomposition
// j = P·j^S + U·z is an exact integer bijection, so the z-level bounds
// enumerate exactly the original iterations of each tile.
func (ts *TiledSpace) buildCombinedBounds() error {
	n := ts.T.N
	sys := poly.NewSystem(2 * n)
	corners := make([]poly.Affine, 0, len(ts.Nest.Space.Cons))
	for _, c := range ts.Nest.Space.Cons {
		row := make(ilin.RatVec, 2*n)
		cmax := c.Rhs.Neg()
		for j := 0; j < n; j++ {
			row[j] = c.Coef.Dot(ts.T.P.Col(j).Rat())
			row[n+j] = c.Coef.Dot(ts.T.U.Col(j).Rat())
			if row[j].Sign() > 0 {
				cmax = cmax.Add(row[j])
			}
		}
		sys.Add(poly.Constraint{Coef: row, Rhs: c.Rhs})
		corners = append(corners, poly.Affine{Coef: row[:n].Clone(), Const: cmax})
	}
	ts.cornerMax = poly.NewVarBounds(corners, nil)
	for k := 0; k < n; k++ {
		lo := make(ilin.RatVec, 2*n)
		for i := range lo {
			lo[i] = rat.Zero
		}
		hi := lo.Clone()
		for l := 0; l <= k; l++ {
			lo[n+l] = rat.FromInt(-ts.T.HT.At(k, l))
			hi[n+l] = rat.FromInt(ts.T.HT.At(k, l))
		}
		sys.Add(poly.Constraint{Coef: lo, Rhs: rat.Zero})                   // -(H̃'z)_k ≤ 0
		sys.Add(poly.Constraint{Coef: hi, Rhs: rat.FromInt(ts.T.V[k] - 1)}) // (H̃'z)_k ≤ v_k - 1
	}
	nb, err := poly.LoopBounds(sys)
	if err != nil {
		return fmt.Errorf("tiling: combined bounds: %w", err)
	}
	ts.Combined = nb
	ts.hoistOff = make([]int, n+1)
	for k := 0; k < n; k++ {
		ts.hoistOff[k+1] = ts.hoistOff[k] + nb.Vars[n+k].Rows()
	}

	lo, hi, err := poly.PrefixBoundingBox(sys, n)
	if err != nil {
		return fmt.Errorf("tiling: tile-space box: %w", err)
	}
	ts.TileLo, ts.TileHi = lo, hi
	return nil
}

// TileBounds evaluates the tile-loop bounds at level k given the outer
// tile coordinates jS[0:k].
func (ts *TiledSpace) TileBounds(k int, prefix ilin.Vec) (lo, hi int64) {
	lo, _ = ts.Combined.Vars[k].EvalLower(prefix)
	hi, _ = ts.Combined.Vars[k].EvalUpper(prefix)
	return lo, hi
}

// ValidTile reports whether j^S is enumerated by the tile loops — the
// paper's valid() predicate. (A valid tile may still contain zero integer
// points when the rational relaxation is nonempty but holds no lattice
// point; such tiles run the communication protocol but compute nothing.)
func (ts *TiledSpace) ValidTile(jS ilin.Vec) bool {
	for k := 0; k < ts.T.N; k++ {
		lo, hi := ts.TileBounds(k, jS[:k])
		if jS[k] < lo || jS[k] > hi {
			return false
		}
	}
	return true
}

// ScanTiles enumerates all valid tiles in lexicographic order. fn receives
// a reusable buffer; returning false stops the scan. Returns the number of
// tiles visited.
func (ts *TiledSpace) ScanTiles(fn func(jS ilin.Vec) bool) int64 {
	n := ts.T.N
	x := make(ilin.Vec, n)
	var count int64
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			count++
			return fn(x)
		}
		lo, hi := ts.TileBounds(k, x[:k])
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

// ScanTilePoints enumerates the lattice points of tile j^S in
// lexicographic z order, with boundary clamping applied. fn receives the
// lattice coordinate z and the TTIS coordinate j' = H̃'·z in reusable
// buffers. Returns the number of points visited.
func (ts *TiledSpace) ScanTilePoints(jS ilin.Vec, fn func(z, jp ilin.Vec) bool) int64 {
	n := ts.T.N
	x := make(ilin.Vec, 2*n)
	copy(x, jS)
	jp := make(ilin.Vec, n)
	var count int64
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == n {
			count++
			return fn(x[n:], jp)
		}
		lo, okL := ts.Combined.Vars[n+k].EvalLower(x[:n+k])
		hi, okU := ts.Combined.Vars[n+k].EvalUpper(x[:n+k])
		if !okL || !okU {
			panic("tiling: unbounded point loop")
		}
		var base int64
		for l := 0; l < k; l++ {
			base += ts.T.HT.At(k, l) * x[n+l]
		}
		for zk := lo; zk <= hi; zk++ {
			x[n+k] = zk
			jp[k] = base + ts.T.C[k]*zk
			if !rec(k + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return count
}

// TilePointCount returns the number of iterations in tile j^S.
func (ts *TiledSpace) TilePointCount(jS ilin.Vec) int64 {
	return ts.ScanTilePoints(jS, func(z, jp ilin.Vec) bool { return true })
}

// TotalPoints returns the total number of iterations across all tiles
// (equals the nest size; pinned by tests).
func (ts *TiledSpace) TotalPoints() int64 {
	var total int64
	ts.ScanTiles(func(jS ilin.Vec) bool {
		total += ts.TilePointCount(jS)
		return true
	})
	return total
}

// computeTileDeps derives D^S = {⌊H(j+d)⌋ : j ∈ TIS, d ∈ D} exactly by
// enumerating the TIS lattice (its size is the tile size) and collecting
// the distinct nonzero offsets, then validates the {0,1} range the §3.2
// communication scheme requires.
func (ts *TiledSpace) computeTileDeps() error {
	n := ts.T.N
	// Chained under the vector hash (collisions resolved by Equal), so the
	// TileSize·q-iteration sweep allocates only per distinct offset instead
	// of building a string key per lattice point.
	seen := map[uint64][]ilin.Vec{}
	off := make(ilin.Vec, n)
	ts.T.ScanTTIS(func(z, jp ilin.Vec) bool {
		for l := 0; l < ts.DP.Cols; l++ {
			zero := true
			for k := 0; k < n; k++ {
				off[k] = rat.FloorDiv(jp[k]+ts.DP.At(k, l), ts.T.V[k])
				if off[k] != 0 {
					zero = false
				}
			}
			if zero {
				continue
			}
			key := ilin.VecHash(off)
			dup := false
			for _, v := range seen[key] {
				if v.Equal(off) {
					dup = true
					break
				}
			}
			if !dup {
				seen[key] = append(seen[key], off.Clone())
			}
		}
		return true
	})
	ts.DS = ts.DS[:0]
	for _, vs := range seen {
		ts.DS = append(ts.DS, vs...)
	}
	sort.Slice(ts.DS, func(i, j int) bool { return ts.DS[i].LexLess(ts.DS[j]) })
	for _, d := range ts.DS {
		for k := 0; k < n; k++ {
			if d[k] < 0 || d[k] > 1 {
				return ErrTileDepRange(d, k)
			}
		}
		if !d.LexPositive() {
			return ErrTileDepNotLexPositive(d)
		}
	}
	return nil
}

// GlobalOf maps (j^S, z) to the original iteration j = P·j^S + U·z.
func (ts *TiledSpace) GlobalOf(jS, z ilin.Vec) ilin.Vec { return ts.T.Global(jS, z) }

// NumTiles returns the number of valid tiles.
func (ts *TiledSpace) NumTiles() int64 {
	return ts.ScanTiles(func(ilin.Vec) bool { return true })
}

// TileFullyInside reports whether the entire closed tile cell
// {x : j^S ≤ H·x ≤ j^S + 1} lies inside the iteration space: whether every
// vertex x = P·(j^S + ε), ε ∈ {0,1}ⁿ, satisfies every constraint
// (sufficient by convexity). The per-constraint maximum over the vertices
// is closed-form (cornerMax), so no vertex is enumerated. A fully inside
// tile contains exactly TileSize lattice points, so large simulations can
// skip per-point scans for interior tiles.
func (ts *TiledSpace) TileFullyInside(jS ilin.Vec) bool {
	v, ok := ts.cornerMax.EvalLower(jS)
	return !ok || v <= 0
}

// TilePointCountFast returns the tile's lattice point count, using the
// convexity shortcut for interior tiles and a scan otherwise.
func (ts *TiledSpace) TilePointCountFast(jS ilin.Vec) int64 {
	if ts.TileFullyInside(jS) {
		return ts.T.TileSize
	}
	return ts.TilePointCount(jS)
}

// CountTilePoints counts the lattice points of tile j^S whose TTIS
// coordinate satisfies j'_k ≥ minJP[k] for every k (pass nil for no
// constraint). It recurses over the outer lattice dimensions and closes
// the innermost level in O(1), so boundary tiles cost O(area) instead of
// O(volume) — what makes paper-scale simulation sweeps affordable. The
// j^S part of every point-level bound is hoisted once per call, and the
// innermost bounds step along z_{n-2} without divisions.
func (ts *TiledSpace) CountTilePoints(jS ilin.Vec, minJP ilin.Vec) int64 {
	n := ts.T.N
	var buf [192]int64
	need := 2*n + ts.hoistOff[n] + ts.Combined.Vars[2*n-1].WalkLen()
	scratch := buf[:]
	if need > len(buf) {
		scratch = make([]int64, need)
	}
	c := pointCounter{ts: ts, minJP: minJP, hoisted: true}
	c.x = scratch[:2*n]
	c.h = scratch[2*n : 2*n+ts.hoistOff[n]]
	c.walk = scratch[2*n+ts.hoistOff[n] : need]
	copy(c.x, jS)
	for k := 0; k < n && c.hoisted; k++ {
		c.hoisted = ts.Combined.Vars[n+k].Hoist(c.x, n, c.levelH(k))
	}
	return c.count(0)
}

// pointCounter is CountTilePoints' recursion state: x = (j^S, z), the
// hoisted j^S numerators h of every point-level bound, and the innermost
// level's walk state.
type pointCounter struct {
	ts         *TiledSpace
	minJP      ilin.Vec
	x, h, walk []int64
	hoisted    bool // false: some bound overflowed Hoist; evaluate in full
}

// levelH returns point level k's slice of the hoisted numerators.
func (c *pointCounter) levelH(k int) []int64 {
	return c.h[c.ts.hoistOff[k]:c.ts.hoistOff[k+1]]
}

func (c *pointCounter) count(k int) int64 {
	ts := c.ts
	n := ts.T.N
	vb := &ts.Combined.Vars[n+k]
	x := c.x[:n+k]
	var lo, hi int64
	ok := c.hoisted
	if ok {
		lo, hi, ok = vb.EvalHoisted(c.levelH(k), x, n)
	}
	if !ok {
		lo, _ = vb.EvalLower(x)
		hi, _ = vb.EvalUpper(x)
	}
	lo = c.clampMin(k, lo)
	if hi < lo {
		return 0
	}
	if k == n-1 {
		return hi - lo + 1
	}
	if k == n-2 && c.hoisted {
		if total, ok := c.walkInnermost(lo, hi); ok {
			return total
		}
	}
	var total int64
	for zk := lo; zk <= hi; zk++ {
		c.x[n+k] = zk
		total += c.count(k + 1)
	}
	return total
}

// walkInnermost counts the last two levels together: z_{n-2} runs over
// [lo, hi] while the innermost bounds step along it (poly.StartWalk). ok
// is false when the walk could overflow; count then recurses instead.
func (c *pointCounter) walkInnermost(lo, hi int64) (int64, bool) {
	n := c.ts.T.N
	vb := &c.ts.Combined.Vars[2*n-1]
	c.x[2*n-2] = lo
	if !vb.StartWalk(c.levelH(n-1), c.x[:2*n-1], n, 2*n-2, hi-lo+1, c.walk) {
		return 0, false
	}
	var total int64
	for zk := lo; zk <= hi; zk++ {
		c.x[2*n-2] = zk
		ilo, ihi := vb.Next(c.walk)
		if ilo = c.clampMin(n-1, ilo); ihi >= ilo {
			total += ihi - ilo + 1
		}
	}
	return total, true
}

// clampMin raises level k's lower bound lo so that
// j'_k = Σ_{l<k} h̃'_kl·z_l + c_k·z_k ≥ minJP[k].
func (c *pointCounter) clampMin(k int, lo int64) int64 {
	if c.minJP == nil || c.minJP[k] <= 0 {
		return lo
	}
	ts := c.ts
	n := ts.T.N
	var base int64
	for l := 0; l < k; l++ {
		base += ts.T.HT.At(k, l) * c.x[n+l]
	}
	return max(lo, rat.CeilDiv(c.minJP[k]-base, ts.T.C[k]))
}
