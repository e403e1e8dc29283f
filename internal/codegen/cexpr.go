// Package codegen emits the paper's deliverable: a complete, human-readable
// C program with MPI calls implementing the compiled tiled iteration space
// — tile-space loops with Fourier–Motzkin bounds, the §3.2 RECEIVE/SEND
// routines, map() addressing into the Local Data Space, and the final
// write-back. It also renders the compile-time analysis report the tilec
// CLI prints.
package codegen

import (
	"fmt"
	"strings"

	"tilespace/internal/poly"
	"tilespace/internal/rat"
)

// cAffine renders an affine bound as an integer C expression under ceild
// (lower bounds) or floord (upper bounds): the rational expression
// Σ (p_i/q_i)·x_i + c is scaled by the lcm L of all denominators and
// becomes {ceild,floord}(Σ a_i·x_i + c', L).
func cAffine(a poly.Affine, vars []string, ceil bool) string {
	l := a.Const.Den
	for _, c := range a.Coef {
		l = rat.Lcm64(l, c.Den)
	}
	if l == 0 {
		l = 1
	}
	terms := []string{}
	for i, c := range a.Coef {
		if c.IsZero() {
			continue
		}
		coef := c.MulInt(l).Int()
		switch coef {
		case 1:
			terms = append(terms, vars[i])
		case -1:
			terms = append(terms, "-"+vars[i])
		default:
			terms = append(terms, fmt.Sprintf("%d*%s", coef, vars[i]))
		}
	}
	if cst := a.Const.MulInt(l).Int(); cst != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", cst))
	}
	expr := strings.Join(terms, " + ")
	expr = strings.ReplaceAll(expr, "+ -", "- ")
	if l == 1 {
		return expr
	}
	if ceil {
		return fmt.Sprintf("ceild(%s, %d)", expr, l)
	}
	return fmt.Sprintf("floord(%s, %d)", expr, l)
}

// cLowerBound renders max(⌈L_1⌉, …) for a variable's lower bounds.
func cLowerBound(vb *poly.VarBounds, vars []string) string {
	parts := make([]string, len(vb.Lower))
	for i, a := range vb.Lower {
		parts[i] = cAffine(a, vars, true)
	}
	return nestCalls("ts_max", parts)
}

// cUpperBound renders min(⌊U_1⌋, …) for a variable's upper bounds.
func cUpperBound(vb *poly.VarBounds, vars []string) string {
	parts := make([]string, len(vb.Upper))
	for i, a := range vb.Upper {
		parts[i] = cAffine(a, vars, false)
	}
	return nestCalls("ts_min", parts)
}

// nestCalls folds ["a","b","c"] into "ts_max(a, ts_max(b, c))".
func nestCalls(fn string, parts []string) string {
	switch len(parts) {
	case 0:
		return "0"
	case 1:
		return parts[0]
	default:
		return fmt.Sprintf("%s(%s, %s)", fn, parts[0], nestCalls(fn, parts[1:]))
	}
}
