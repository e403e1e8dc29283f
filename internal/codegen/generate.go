package codegen

import (
	"fmt"
	"strings"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/poly"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// Options configure the generated C program.
type Options struct {
	// Name is used in the header comment and output messages.
	Name string
	// Width is the number of doubles per iteration point.
	Width int
	// KernelStmt is the C statement computing one iteration. Placeholders:
	// $W (write lvalue), $R0…$Rq-1 (dependence reads), and j[0]…j[n-1]
	// (the global iteration point) are in scope.
	KernelStmt string
	// InitialStmt fills `out[0..WIDTH)` for a point j outside the
	// iteration space; defaults to zeros.
	InitialStmt string
	// OpenMP annotates the compute sweep with intra-tile parallelism: a
	// `parallel for` on the first TTIS dimension every dependence is
	// carried strictly outside of (the dimension after the cone's
	// sequential set — see distrib.SeqDims), and `simd` on the innermost
	// loop when it is deeper still. The pragmas assert exactly the
	// wavefront independence internal/verify certifies (theorem 4), so
	// the annotated code is bit-compatible with the serial sweep. Off by
	// default: the plain output compiles warning-free without -fopenmp.
	OpenMP bool
}

// Generator compiles one distribution into C+MPI source.
type Generator struct {
	ts   *tiling.TiledSpace
	d    *distrib.Distribution
	opts Options

	n    int
	m    int
	perm []int            // permuted tile-variable order: non-m dims, then m
	nb   *poly.NestBounds // bounds over permuted (jS, z)
	vars []string         // C names of the 2n permuted variables
}

// New prepares a generator; it re-runs Fourier–Motzkin with the mapping
// dimension moved innermost (the paper's loop interchange of §3.1, valid
// because tile dependencies are lexicographically positive).
func New(d *distrib.Distribution, opts Options) (*Generator, error) {
	if opts.Width <= 0 {
		opts.Width = 1
	}
	if opts.KernelStmt == "" {
		return nil, fmt.Errorf("codegen: KernelStmt is required")
	}
	if opts.InitialStmt == "" {
		opts.InitialStmt = "for (int w = 0; w < WIDTH; w++) out[w] = 0.0;"
	}
	if opts.Name == "" {
		opts.Name = "tiled"
	}
	g := &Generator{ts: d.TS, d: d, opts: opts, n: d.TS.T.N, m: d.M}
	for k := 0; k < g.n; k++ {
		if k != g.m {
			g.perm = append(g.perm, k)
		}
	}
	g.perm = append(g.perm, g.m)
	if err := g.buildPermutedBounds(); err != nil {
		return nil, err
	}
	g.vars = make([]string, 2*g.n)
	for p, dim := range g.perm {
		g.vars[p] = fmt.Sprintf("jS[%d]", dim)
	}
	for k := 0; k < g.n; k++ {
		g.vars[g.n+k] = fmt.Sprintf("z%d", k)
	}
	return g, nil
}

// buildPermutedBounds mirrors tiling's combined system with tile variables
// reordered so the mapping dimension is innermost among the tile loops.
func (g *Generator) buildPermutedBounds() error {
	n := g.n
	t := g.ts.T
	pos := make([]int, n) // natural dim -> permuted position
	for p, dim := range g.perm {
		pos[dim] = p
	}
	sys := poly.NewSystem(2 * n)
	for _, c := range g.ts.Nest.Space.Cons {
		row := make(ilin.RatVec, 2*n)
		for i := range row {
			row[i] = rat.Zero
		}
		for dim := 0; dim < n; dim++ {
			row[pos[dim]] = c.Coef.Dot(t.P.Col(dim).Rat())
			row[n+dim] = c.Coef.Dot(t.U.Col(dim).Rat())
		}
		sys.Add(poly.Constraint{Coef: row, Rhs: c.Rhs})
	}
	for k := 0; k < n; k++ {
		lo := make(ilin.RatVec, 2*n)
		for i := range lo {
			lo[i] = rat.Zero
		}
		hi := lo.Clone()
		for l := 0; l <= k; l++ {
			lo[n+l] = rat.FromInt(-t.HT.At(k, l))
			hi[n+l] = rat.FromInt(t.HT.At(k, l))
		}
		sys.Add(poly.Constraint{Coef: lo, Rhs: rat.Zero})
		sys.Add(poly.Constraint{Coef: hi, Rhs: rat.FromInt(t.V[k] - 1)})
	}
	nb, err := poly.LoopBounds(sys)
	if err != nil {
		return fmt.Errorf("codegen: permuted bounds: %w", err)
	}
	g.nb = nb
	return nil
}

// writer is a small indentation-aware emitter.
type writer struct {
	b      strings.Builder
	indent int
}

func (w *writer) line(format string, args ...any) {
	w.b.WriteString(strings.Repeat("    ", w.indent))
	fmt.Fprintf(&w.b, format, args...)
	w.b.WriteByte('\n')
}

func (w *writer) blank() { w.b.WriteByte('\n') }

func (w *writer) open(format string, args ...any) {
	w.line(format+" {", args...)
	w.indent++
}

func (w *writer) openBlock() {
	w.line("{")
	w.indent++
}

func (w *writer) close(suffix ...string) {
	w.indent--
	if len(suffix) > 0 {
		w.line("}%s", suffix[0])
	} else {
		w.line("}")
	}
}

// Generate emits the complete C program.
func (g *Generator) Generate() string {
	w := &writer{}
	g.header(w)
	g.prelude(w)
	g.tables(w)
	g.boundsHelpers(w)
	g.addressing(w)
	g.protocolHelpers(w)
	g.kernelFns(w)
	g.commFns(w)
	g.mainFn(w)
	return w.b.String()
}

func (g *Generator) header(w *writer) {
	w.line("/*")
	w.line(" * %s.c — data-parallel tiled code, generated by tilespace.", g.opts.Name)
	w.line(" *")
	w.line(" * Tiling transformation H:")
	for i := 0; i < g.n; i++ {
		row := make([]string, g.n)
		for j := 0; j < g.n; j++ {
			row[j] = g.ts.T.H.At(i, j).String()
		}
		w.line(" *   [ %s ]", strings.Join(row, "  "))
	}
	w.line(" * Tile size |det P| = %d; strides c = %v; CC = %v.", g.ts.T.TileSize, g.ts.T.C, g.ts.CC)
	w.line(" * Mapping dimension m = %d (0-based); %d processors.", g.m, g.d.NumProcs())
	w.line(" */")
}

func (g *Generator) prelude(w *writer) {
	w.line("#include <stdio.h>")
	w.line("#include <stdlib.h>")
	w.line("#include <mpi.h>")
	w.blank()
	w.line("#define ts_max(a, b) ((a) > (b) ? (a) : (b))")
	w.line("#define ts_min(a, b) ((a) < (b) ? (a) : (b))")
	w.line("/* floor/ceil division toward -inf/+inf for positive divisors */")
	w.line("#define floord(n, d) (((n) >= 0) ? (n) / (d) : -((-(n) + (d) - 1) / (d)))")
	w.line("#define ceild(n, d)  (((n) >= 0) ? ((n) + (d) - 1) / (d) : -((-(n)) / (d)))")
	w.blank()
	w.line("#define NDIM %d", g.n)
	w.line("#define MAPDIM %d", g.m)
	w.line("#define WIDTH %d", g.opts.Width)
	w.line("#define NDEPS %d", g.ts.Nest.Q())
	w.line("#define NTILEDEPS %d", len(g.ts.DS))
	w.line("#define NPROCDEPS %d", len(g.d.DM))
}

func cTable(name string, rows [][]int64) []string {
	out := []string{fmt.Sprintf("static const long %s[%d][%d] = {", name, len(rows), len(rows[0]))}
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, x := range r {
			parts[i] = fmt.Sprintf("%d", x)
		}
		out = append(out, "    {"+strings.Join(parts, ", ")+"},")
	}
	return append(out, "};")
}

func vecRows(vs []ilin.Vec) [][]int64 {
	rows := make([][]int64, len(vs))
	for i, v := range vs {
		rows[i] = v
	}
	return rows
}

func matRows(m *ilin.Mat) [][]int64 {
	rows := make([][]int64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

func (g *Generator) tables(w *writer) {
	w.blank()
	w.line("/* tile geometry: V = TTIS extents, C = strides, OFF = LDS offsets, CC = communication vector */")
	w.line("static const long V[NDIM]   = {%s};", joinInts(g.ts.T.V))
	w.line("static const long CSTR[NDIM] = {%s};", joinInts(g.ts.T.C))
	w.line("static const long OFF[NDIM] = {%s};", joinInts(g.d.Off))
	w.line("static const long CC[NDIM]  = {%s};", joinInts(g.ts.CC))
	w.blank()
	w.line("/* P (tile edges), U (lattice basis combiner), HT (Hermite form of H') */")
	for _, l := range cTable("P", matRows(g.ts.T.P)) {
		w.line("%s", l)
	}
	for _, l := range cTable("U", matRows(g.ts.T.U)) {
		w.line("%s", l)
	}
	for _, l := range cTable("HT", matRows(g.ts.T.HT)) {
		w.line("%s", l)
	}
	w.blank()
	w.line("/* transformed dependencies D' = H'D (columns), tile deps D^S, processor deps D^m */")
	for _, l := range cTable("DP", matRows(g.ts.DP.Transpose())) {
		w.line("%s", l)
	}
	if len(g.ts.DS) > 0 {
		for _, l := range cTable("DS", vecRows(g.ts.DS)) {
			w.line("%s", l)
		}
	} else {
		w.line("static const long DS[1][NDIM] = {{0}}; /* no tile dependencies */")
	}
	if len(g.d.DM) > 0 {
		for _, l := range cTable("DM", vecRows(g.d.DM)) {
			w.line("%s", l)
		}
	} else {
		w.line("static const long DM[1][1] = {{0}}; /* no processor dependencies */")
	}
}

// tileVarBounds renders the (lower, upper) C expressions of permuted tile
// variable position p.
func (g *Generator) tileVarBounds(p int) (string, string) {
	return cLowerBound(&g.nb.Vars[p], g.vars), cUpperBound(&g.nb.Vars[p], g.vars)
}

func (g *Generator) boundsHelpers(w *writer) {
	w.blank()
	w.line("/* tile_valid: the paper's valid() — is jS enumerated by the tile loops? */")
	w.open("static int tile_valid(const long jS_in[NDIM])")
	w.line("long jS[NDIM];")
	w.line("for (int k = 0; k < NDIM; k++) jS[k] = jS_in[k];")
	for p := 0; p < g.n; p++ {
		lb, ub := g.tileVarBounds(p)
		w.line("if (jS[%d] < (%s) || jS[%d] > (%s)) return 0;", g.perm[p], lb, g.perm[p], ub)
	}
	w.line("return 1;")
	w.close()
	w.blank()
	w.line("/* find_pid: walk the processor mesh (tile loops minus the mapping dim)")
	w.line(" * counting cells until this rank's is reached. */")
	w.open("static int find_pid(int rank, long jS[NDIM])")
	w.line("int count = 0;")
	for p := 0; p < g.n-1; p++ {
		lb, ub := g.tileVarBounds(p)
		w.open("for (jS[%d] = %s; jS[%d] <= (%s); jS[%d]++)", g.perm[p], lb, g.perm[p], ub, g.perm[p])
	}
	w.line("if (count++ == rank) return 1;")
	for p := 0; p < g.n-1; p++ {
		w.close()
	}
	w.line("return 0;")
	w.close()
	w.blank()
	w.line("/* rank_of_pid: inverse of find_pid (linearized mesh rank). */")
	w.open("static int rank_of_pid(const long pid[NDIM])")
	w.line("long jS[NDIM];")
	w.line("int count = 0;")
	for p := 0; p < g.n-1; p++ {
		lb, ub := g.tileVarBounds(p)
		w.open("for (jS[%d] = %s; jS[%d] <= (%s); jS[%d]++)", g.perm[p], lb, g.perm[p], ub, g.perm[p])
	}
	w.line("{")
	w.indent++
	w.line("int same = 1;")
	w.line("for (int k = 0; k < NDIM; k++) if (k != MAPDIM && jS[k] != pid[k]) same = 0;")
	w.line("if (same) return count;")
	w.line("count++;")
	w.indent--
	w.line("}")
	for p := 0; p < g.n-1; p++ {
		w.close()
	}
	w.line("return -1;")
	w.close()
	w.blank()
	lbm, ubm := g.tileVarBounds(g.n - 1)
	w.line("/* chain_bounds: this processor's first and last tile along the mapping dim. */")
	w.open("static void chain_bounds(const long jS_in[NDIM], long *lo, long *hi)")
	w.line("long jS[NDIM];")
	w.line("for (int k = 0; k < NDIM; k++) jS[k] = jS_in[k];")
	w.line("*lo = %s;", lbm)
	w.line("*hi = %s;", ubm)
	w.close()
}

func joinInts(v ilin.Vec) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ", ")
}
