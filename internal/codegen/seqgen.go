package codegen

import (
	"fmt"
	"strings"

	"tilespace/internal/poly"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// GenerateSequential emits the paper's §2.3 sequential tiled code (the
// output of the prior-work tool [7] this paper builds on): a standalone C
// program with a 2n-deep loop nest — n tile loops and n boundary-clamped
// point loops traversing the TTIS lattice — that computes directly on the
// global data space in tiled order. Useful for single-node locality runs
// and as the reference the parallel program is checked against.
func GenerateSequential(ts *tiling.TiledSpace, opts Options) (string, error) {
	if opts.Width <= 0 {
		opts.Width = 1
	}
	if opts.KernelStmt == "" {
		return "", fmt.Errorf("codegen: KernelStmt is required")
	}
	if opts.InitialStmt == "" {
		opts.InitialStmt = "for (int w = 0; w < WIDTH; w++) out[w] = 0.0;"
	}
	if opts.Name == "" {
		opts.Name = "tiled_seq"
	}
	n := ts.T.N
	lo, hi, err := ts.Nest.BoundingBox()
	if err != nil {
		return "", err
	}

	w := &writer{}
	w.line("/*")
	w.line(" * %s.c — sequential tiled code (the paper's §2.3), generated by tilespace.", opts.Name)
	w.line(" * %d tile loops over J^S, %d lattice loops over each tile's TTIS.", n, n)
	w.line(" */")
	w.line("#include <stdio.h>")
	w.line("#include <stdlib.h>")
	w.blank()
	w.line("#define ts_max(a, b) ((a) > (b) ? (a) : (b))")
	w.line("#define ts_min(a, b) ((a) < (b) ? (a) : (b))")
	w.line("#define floord(n, d) (((n) >= 0) ? (n) / (d) : -((-(n) + (d) - 1) / (d)))")
	w.line("#define ceild(n, d)  (((n) >= 0) ? ((n) + (d) - 1) / (d) : -((-(n)) / (d)))")
	w.blank()
	w.line("#define NDIM %d", n)
	w.line("#define WIDTH %d", opts.Width)
	w.line("#define NDEPS %d", ts.Nest.Q())
	w.blank()
	// Global array over the bounding box.
	size := int64(1)
	for k := 0; k < n; k++ {
		w.line("#define LO%d (%dL)", k, lo[k])
		w.line("#define EXT%d (%dL)", k, hi[k]-lo[k]+1)
		size *= hi[k] - lo[k] + 1
	}
	w.line("#define CELLS (%dL)", size)
	w.blank()
	depRows := make([][]int64, ts.Nest.Q())
	for l := range depRows {
		depRows[l] = ts.Nest.Dep(l)
	}
	if len(depRows) > 0 {
		for _, line := range cTable("DEPS", depRows) {
			w.line("%s", line)
		}
	} else {
		w.line("static const long DEPS[1][NDIM] = {{0}};")
	}
	for _, line := range cTable("P", matRows(ts.T.P)) {
		w.line("%s", line)
	}
	for _, line := range cTable("U", matRows(ts.T.U)) {
		w.line("%s", line)
	}
	w.blank()
	w.open("static long gidx(const long j[NDIM])")
	w.line("long idx = 0;")
	for k := 0; k < n; k++ {
		w.line("idx = idx * EXT%d + (j[%d] - LO%d);", k, k, k)
	}
	w.line("return idx;")
	w.close()
	w.blank()
	emitInSpace(w, ts)
	w.blank()
	w.open("static void initial_value(const long j[NDIM], double *out)")
	w.line("(void)j;")
	w.line("%s", opts.InitialStmt)
	w.close()
	w.blank()
	w.open("int main(void)")
	w.line("double *A = calloc((size_t)CELLS * WIDTH, sizeof(double));")
	w.line("if (!A) return 1;")

	// Tile loops in natural order, then point loops: the Combined bounds.
	vars := make([]string, 2*n)
	for k := 0; k < n; k++ {
		vars[k] = fmt.Sprintf("jS%d", k)
		vars[n+k] = fmt.Sprintf("z%d", k)
	}
	for k := 0; k < 2*n; k++ {
		lb := cLowerBound(&ts.Combined.Vars[k], vars)
		ub := cUpperBound(&ts.Combined.Vars[k], vars)
		w.open("for (long %s = %s; %s <= (%s); %s++)", vars[k], lb, vars[k], ub, vars[k])
	}
	w.line("long jS[NDIM], zv[NDIM], j[NDIM];")
	for k := 0; k < n; k++ {
		w.line("jS[%d] = jS%d; zv[%d] = z%d;", k, k, k, k)
	}
	w.line("for (int k = 0; k < NDIM; k++) {")
	w.indent++
	w.line("j[k] = 0;")
	w.line("for (int l = 0; l < NDIM; l++) j[k] += P[k][l]*jS[l] + U[k][l]*zv[l];")
	w.indent--
	w.line("}")
	w.line("double tmp[NDEPS > 0 ? NDEPS : 1][WIDTH];")
	for l := 0; l < ts.Nest.Q(); l++ {
		w.line("long s%d[NDIM];", l)
		w.line("for (int k = 0; k < NDIM; k++) s%d[k] = j[k] - DEPS[%d][k];", l, l)
		w.line("double *R%d;", l)
		w.line("if (in_space(s%d)) { R%d = &A[gidx(s%d) * WIDTH]; } else { initial_value(s%d, tmp[%d]); R%d = tmp[%d]; }", l, l, l, l, l, l, l)
	}
	w.line("double *out = &A[gidx(j) * WIDTH];")
	stmt := replacePlaceholders(opts.KernelStmt, ts.Nest.Q())
	w.line("%s", stmt)
	for k := 0; k < 2*n; k++ {
		w.close()
	}
	w.blank()
	w.line("double sum = 0.0;")
	w.line("for (long i = 0; i < CELLS * WIDTH; i++) sum += A[i];")
	w.line("printf(\"%s: checksum %%.17g\\n\", sum);", opts.Name)
	w.line("free(A);")
	w.line("return 0;")
	w.close()
	return w.b.String(), nil
}

// emitInSpace writes the in_space predicate (shared shape with the
// parallel generator, kept local to avoid entangling the two programs).
func emitInSpace(w *writer, ts *tiling.TiledSpace) {
	w.open("static int in_space(const long j[NDIM])")
	for _, c := range ts.Nest.Space.Cons {
		line, ok := inequalityLine(c)
		if ok {
			w.line("%s", line)
		}
	}
	w.line("return 1;")
	w.close()
}

// inequalityLine renders one constraint as a guard.
func inequalityLine(c poly.Constraint) (string, bool) {
	l := c.Rhs.Den
	for _, x := range c.Coef {
		l = rat.Lcm64(l, x.Den)
	}
	terms := ""
	for k, x := range c.Coef {
		v := x.MulInt(l).Int()
		if v == 0 {
			continue
		}
		if terms != "" {
			terms += " + "
		}
		terms += fmt.Sprintf("%d*j[%d]", v, k)
	}
	if terms == "" {
		return "", false
	}
	return fmt.Sprintf("if (!(%s <= %d)) return 0;", terms, c.Rhs.MulInt(l).Int()), true
}

// replacePlaceholders substitutes $W and $Rl in a kernel statement.
func replacePlaceholders(stmt string, q int) string {
	out := strings.ReplaceAll(stmt, "$W", "out")
	for l := q - 1; l >= 0; l-- {
		out = strings.ReplaceAll(out, fmt.Sprintf("$R%d", l), fmt.Sprintf("R%d", l))
	}
	return out
}
