package codegen

import (
	"strings"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/tiling"
)

func sorGen(t *testing.T) *Generator {
	t.Helper()
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, Options{
		Name:       "sor",
		Width:      1,
		KernelStmt: "out[0] = 0.3*(R0[0] + R1[0] + R2[0] + R3[0]) - 0.2*R4[0];",
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// braceBalance verifies structural integrity of the emitted C: braces and
// parentheses must balance and never go negative.
func braceBalance(t *testing.T, src string) {
	t.Helper()
	braces, parens := 0, 0
	for _, r := range src {
		switch r {
		case '{':
			braces++
		case '}':
			braces--
		case '(':
			parens++
		case ')':
			parens--
		}
		if braces < 0 || parens < 0 {
			t.Fatal("unbalanced braces/parens in generated C")
		}
	}
	if braces != 0 || parens != 0 {
		t.Fatalf("generated C ends with %d open braces, %d open parens", braces, parens)
	}
}

func TestGenerateStructure(t *testing.T) {
	src := sorGen(t).Generate()
	braceBalance(t, src)
	for _, want := range []string{
		"#include <mpi.h>",
		"MPI_Init", "MPI_Finalize", "MPI_Send", "MPI_Recv", "MPI_Reduce",
		"MPI_Comm_rank", "MPI_Abort",
		"static int tile_valid", "static int find_pid", "static int rank_of_pid",
		"static void chain_bounds", "static long map_cell", "static long map_read",
		"static long map_unpack", "static int minsucc_is", "static int has_successor",
		"static long region_count", "static void receive_data", "static void send_data",
		"static void compute_tile", "static void inject_boundary",
		"static int in_space", "static void initial_value",
		"#define NDIM 3", "#define MAPDIM 2", "#define WIDTH 1",
		"ceild", "floord", "ts_max", "ts_min",
		"int main(int argc, char **argv)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	// Kernel placeholders must be substituted.
	if strings.Contains(src, "$W") || strings.Contains(src, "$R0") {
		t.Error("unsubstituted kernel placeholders")
	}
	// The kernel statement itself must appear.
	if !strings.Contains(src, "0.3*(R0[0] + R1[0] + R2[0] + R3[0]) - 0.2*R4[0]") {
		t.Error("kernel statement not emitted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := sorGen(t).Generate()
	b := sorGen(t).Generate()
	if a != b {
		t.Error("generation is not deterministic")
	}
}

func TestGenerateADIWidth2(t *testing.T) {
	app, err := apps.ADI(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[2].H(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, Options{
		Name:  "adi",
		Width: 2,
		KernelStmt: "double a = 0.05; out[0] = R0[0] + R2[0]*a/R2[1] - R1[0]*a/R1[1]; " +
			"out[1] = R0[1] - a*a/R2[1] - a*a/R1[1];",
		InitialStmt: "out[0] = 1.0; out[1] = 2.0;",
	})
	if err != nil {
		t.Fatal(err)
	}
	src := g.Generate()
	braceBalance(t, src)
	if !strings.Contains(src, "#define WIDTH 2") {
		t.Error("width 2 not emitted")
	}
	if !strings.Contains(src, "out[1] = R0[1]") {
		t.Error("two-array kernel missing")
	}
}

func TestGenerateJacobiStride2(t *testing.T) {
	app, err := apps.Jacobi(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(d, Options{Name: "jacobi", Width: 1, KernelStmt: "out[0] = 0.2*(R0[0]+R1[0]+R2[0]+R3[0]+R4[0]);"})
	if err != nil {
		t.Fatal(err)
	}
	src := g.Generate()
	braceBalance(t, src)
	// The stride-2 lattice shows up in the strides table.
	if !strings.Contains(src, "CSTR[NDIM] = {1, 2, 1}") {
		t.Errorf("expected strides {1, 2, 1} in generated code")
	}
}

func TestNewErrors(t *testing.T) {
	app, err := apps.SOR(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.Rect.H(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(d, Options{}); err == nil {
		t.Error("missing kernel statement not rejected")
	}
}

func TestReport(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	d, err := distrib.New(ts, app.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(d)
	for _, want := range []string{
		"tiling analysis", "extreme rays", "D^S", "communication vector",
		"processors:", "LDS shape", "cone surface",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Rectangular ADI's report must flag the interior time row (for SOR
	// even the rectangular rows lie on cone facets, so ADI is the
	// discriminating case).
	adi, err := apps.ADI(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	tsR, err := tiling.Analyze(adi.Nest, adi.Rect.H(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	dR, err := distrib.New(tsR, adi.MapDim)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Report(dR), "not time-optimal") {
		t.Error("rect ADI report should carry the Hodzic-Shang warning")
	}
}

func TestCAffineRendering(t *testing.T) {
	g := sorGen(t)
	// Smoke: bounds of the innermost z variable must reference outer names.
	lb := cLowerBound(&g.nb.Vars[2*g.n-1], g.vars)
	ub := cUpperBound(&g.nb.Vars[2*g.n-1], g.vars)
	if lb == "" || ub == "" {
		t.Fatal("empty bound expressions")
	}
	if !strings.Contains(lb+ub, "jS[") && !strings.Contains(lb+ub, "z") {
		t.Errorf("bounds reference no variables: %s / %s", lb, ub)
	}
}

func TestVecRowsHelper(t *testing.T) {
	rows := vecRows([]ilin.Vec{ilin.NewVec(1, 2)})
	if len(rows) != 1 || rows[0][1] != 2 {
		t.Error("vecRows mismatch")
	}
	tbl := cTable("X", rows)
	if !strings.Contains(tbl[0], "X[1][2]") {
		t.Errorf("cTable header = %s", tbl[0])
	}
}

func TestGenerateSequential(t *testing.T) {
	app, err := apps.SOR(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[0].H(2, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateSequential(ts, Options{
		Name:       "sor_seq",
		KernelStmt: "$W[0] = 0.3*($R0[0] + $R1[0]) - 0.2*$R4[0];",
	})
	if err != nil {
		t.Fatal(err)
	}
	braceBalance(t, src)
	for _, want := range []string{
		"int main(void)", "static int in_space", "gidx", "sor_seq",
		"for (long jS0", "for (long z0",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("sequential C missing %q", want)
		}
	}
	if strings.Contains(src, "$W") || strings.Contains(src, "$R0") {
		t.Error("unsubstituted placeholders")
	}
	if strings.Contains(src, "mpi.h") {
		t.Error("sequential code must not need MPI")
	}
	if _, err := GenerateSequential(ts, Options{}); err == nil {
		t.Error("missing kernel not rejected")
	}
}

func TestGenerateSequentialDeterministic(t *testing.T) {
	app, err := apps.ADI(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tiling.Analyze(app.Nest, app.NonRect[2].H(2, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Name: "adi_seq", Width: 2, KernelStmt: "$W[0] = $R0[0]; $W[1] = $R0[1];"}
	a, err := GenerateSequential(ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSequential(ts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("non-deterministic sequential generation")
	}
}
