package codegen

import (
	"fmt"
	"sort"
)

// varsFor returns the 2n permuted C variable names with the tile array
// called arr (the z loops are emitted in several functions whose tile
// coordinate arrays have different names).
func (g *Generator) varsFor(arr string) []string {
	vars := make([]string, 2*g.n)
	for p, dim := range g.perm {
		vars[p] = fmt.Sprintf("%s[%d]", arr, dim)
	}
	for k := 0; k < g.n; k++ {
		vars[g.n+k] = fmt.Sprintf("z%d", k)
	}
	return vars
}

// emitZLoops writes the nested point loops of one tile (array name arr),
// declaring z0…zn-1, zv[] and jp[] (the TTIS coordinate); filter, when
// non-empty, is the name of a full-dimension direction array and restricts
// the body to communication points (jp[k] ≥ CC[k] on its non-mapping
// 1-dimensions). pragmas, when non-nil, holds one pragma line per
// dimension, emitted immediately before that dimension's for statement
// (empty entries emit nothing).
func (g *Generator) emitZLoops(w *writer, arr, filter string, pragmas []string, body func()) {
	vars := g.varsFor(arr)
	w.line("long zv[NDIM], jp[NDIM];")
	w.line("(void)zv;")
	for k := 0; k < g.n; k++ {
		lb := cLowerBound(&g.nb.Vars[g.n+k], vars)
		ub := cUpperBound(&g.nb.Vars[g.n+k], vars)
		if pragmas != nil && pragmas[k] != "" {
			w.line("%s", pragmas[k])
		}
		w.open("for (long z%d = %s; z%d <= (%s); z%d++)", k, lb, k, ub, k)
		w.line("zv[%d] = z%d;", k, k)
		terms := ""
		for l := 0; l <= k; l++ {
			if g.ts.T.HT.At(k, l) == 0 {
				continue
			}
			if terms != "" {
				terms += " + "
			}
			terms += fmt.Sprintf("%d*z%d", g.ts.T.HT.At(k, l), l)
		}
		if terms == "" {
			terms = "0"
		}
		w.line("jp[%d] = %s;", k, terms)
	}
	if filter != "" {
		w.line("int cpoint = 1;")
		w.line("for (int k = 0; k < NDIM; k++)")
		w.line("    if (k != MAPDIM && %s[k] && jp[k] < CC[k]) cpoint = 0;", filter)
		w.line("if (!cpoint) continue;")
	}
	body()
	for k := 0; k < g.n; k++ {
		w.close()
	}
}

func (g *Generator) addressing(w *writer) {
	w.blank()
	w.line("/* Local Data Space layout (Fig. 3) and the map() of Table 1. */")
	w.line("static long lds_shape[NDIM], lds_stride[NDIM];")
	w.blank()
	w.open("static long lds_init(long chain_len)")
	w.line("for (int k = 0; k < NDIM; k++) {")
	w.indent++
	w.line("long per = V[k] / CSTR[k];")
	w.line("lds_shape[k] = (k == MAPDIM) ? OFF[k] + chain_len * per : OFF[k] + per;")
	w.indent--
	w.line("}")
	w.line("long size = 1;")
	w.line("for (int k = NDIM - 1; k >= 0; k--) { lds_stride[k] = size; size *= lds_shape[k]; }")
	w.line("return size;")
	w.close()
	w.blank()
	w.open("static long map_cell(const long jp[NDIM], long t)")
	w.line("long idx = 0;")
	w.line("for (int k = 0; k < NDIM; k++) {")
	w.indent++
	w.line("long x = (k == MAPDIM) ? t * V[k] + jp[k] : jp[k];")
	w.line("idx += (floord(x, CSTR[k]) + OFF[k]) * lds_stride[k];")
	w.indent--
	w.line("}")
	w.line("return idx;")
	w.close()
	w.blank()
	w.open("static long map_read(const long jp[NDIM], const long dp[NDIM], long t)")
	w.line("long idx = 0;")
	w.line("for (int k = 0; k < NDIM; k++) {")
	w.indent++
	w.line("long x = jp[k] - dp[k];")
	w.line("if (k == MAPDIM) x += t * V[k];")
	w.line("idx += (floord(x, CSTR[k]) + OFF[k]) * lds_stride[k];")
	w.indent--
	w.line("}")
	w.line("return idx;")
	w.close()
	w.blank()
	w.line("/* map_unpack: where a predecessor tile's point lands in this LDS")
	w.line(" * (tau = pred_m - chain_start; dmf = processor direction, 0 at MAPDIM). */")
	w.open("static long map_unpack(const long pp[NDIM], const long dmf[NDIM], long tau)")
	w.line("long idx = 0;")
	w.line("for (int k = 0; k < NDIM; k++) {")
	w.indent++
	w.line("long x = (k == MAPDIM) ? tau * V[k] + pp[k] : pp[k] - V[k] * dmf[k];")
	w.line("idx += (floord(x, CSTR[k]) + OFF[k]) * lds_stride[k];")
	w.indent--
	w.line("}")
	w.line("return idx;")
	w.close()
}

func (g *Generator) protocolHelpers(w *writer) {
	// Precompute: DSDM[i] = index into DM of the projection of DS[i] (-1
	// when intra-processor), and the receive order (descending d^S_m).
	dsdm := make([]int, len(g.ts.DS))
	for i, dS := range g.ts.DS {
		dm := g.d.DmOf(dS)
		dsdm[i] = -1
		for di, cand := range g.d.DM {
			if cand.Equal(dm) {
				dsdm[i] = di
				break
			}
		}
	}
	order := make([]int, len(g.ts.DS))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.ts.DS[order[a]][g.m] > g.ts.DS[order[b]][g.m]
	})

	w.blank()
	w.line("/* DSDM[i]: processor-dep index of tile dep i (-1 = same processor);")
	w.line(" * DSRECV: receive processing order (descending d^S_m, matching the")
	w.line(" * senders' FIFO order when two tile deps share a direction). */")
	w.line("static const int DSDM[%d] = {%s};", max(1, len(dsdm)), joinIntSlice(dsdm))
	w.line("static const int DSRECV[%d] = {%s};", max(1, len(order)), joinIntSlice(order))
	w.blank()
	w.open("static void dm_full(int di, long out[NDIM])")
	w.line("int idx = 0;")
	w.line("for (int k = 0; k < NDIM; k++) out[k] = (k == MAPDIM) ? 0 : DM[di][idx++];")
	w.close()
	w.blank()
	w.line("/* minsucc_is: is `tile` the lexicographically minimum valid successor")
	w.line(" * of pred along processor direction di (§3.2)? */")
	w.open("static int minsucc_is(const long pred[NDIM], int di, const long tile[NDIM])")
	w.line("long best[NDIM];")
	w.line("int have = 0;")
	w.line("for (int i = 0; i < NTILEDEPS; i++) {")
	w.indent++
	w.line("if (DSDM[i] != di) continue;")
	w.line("long succ[NDIM];")
	w.line("for (int k = 0; k < NDIM; k++) succ[k] = pred[k] + DS[i][k];")
	w.line("if (!tile_valid(succ)) continue;")
	w.line("int less = !have;")
	w.line("for (int k = 0; k < NDIM && have; k++) {")
	w.indent++
	w.line("if (succ[k] != best[k]) { less = succ[k] < best[k]; break; }")
	w.indent--
	w.line("}")
	w.line("if (less) { for (int k = 0; k < NDIM; k++) best[k] = succ[k]; have = 1; }")
	w.indent--
	w.line("}")
	w.line("if (!have) return 0;")
	w.line("for (int k = 0; k < NDIM; k++) if (best[k] != tile[k]) return 0;")
	w.line("return 1;")
	w.close()
	w.blank()
	w.open("static int has_successor(const long tile[NDIM], int di)")
	w.line("for (int i = 0; i < NTILEDEPS; i++) {")
	w.indent++
	w.line("if (DSDM[i] != di) continue;")
	w.line("long succ[NDIM];")
	w.line("for (int k = 0; k < NDIM; k++) succ[k] = tile[k] + DS[i][k];")
	w.line("if (tile_valid(succ)) return 1;")
	w.indent--
	w.line("}")
	w.line("return 0;")
	w.close()
}

func joinIntSlice(v []int) string {
	if len(v) == 0 {
		return "0"
	}
	s := ""
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d", x)
	}
	return s
}
