package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/bench"
	"tilespace/internal/distrib"
	"tilespace/internal/simnet"
	"tilespace/internal/tiling"
)

// figuresScale shrinks every paper space to 1/4 per dimension.
const figuresScale = 4

// figuresDigest pins the rendered tables of Figs 5-10 at figuresScale.
// It is a regression check, not a reference: it only says the simulator
// still produces what it produced when the benchmark was written. The
// paper's own shape (non-rect beats rect, §4.4) is checked separately.
const figuresDigest = "9979f747f96fedb8"

// figTiling is one tiling family at one sweep point of one figure.
type figTiling struct {
	fig, sweep, point int
	fam               apps.TilingFamily
	app               *apps.App
	x, y, z           int64
	size              int64 // untiled point count, loopnest.Nest.Size()
}

type figuresWL struct {
	rng     *rand.Rand
	figs    []*bench.Figure
	items   []figTiling
	par     simnet.Params
	results []*simnet.Result // by item, from the first completed pass
}

func setupFigures(rng *rand.Rand, tr *tracer) (workload, error) {
	figs, err := bench.Figures(figuresScale)
	if err != nil {
		return nil, err
	}
	w := &figuresWL{rng: rng, figs: figs, par: simnet.FastEthernetPIII()}
	sizes := map[*apps.App]int64{}
	for fi, f := range figs {
		for si, s := range f.Sweeps {
			if _, ok := sizes[s.App]; !ok {
				n, err := s.App.Nest.Size()
				if err != nil {
					return nil, err
				}
				sizes[s.App] = n
			}
			fams := append([]apps.TilingFamily{s.App.Rect}, s.App.NonRect...)
			for pi, v := range s.Values {
				x, y, z := s.Factors(v)
				for _, fam := range fams {
					w.items = append(w.items, figTiling{fig: fi, sweep: si, point: pi,
						fam: fam, app: s.App, x: x, y: y, z: z, size: sizes[s.App]})
				}
			}
		}
	}
	w.results = make([]*simnet.Result, len(w.items))
	return w, nil
}

func (w *figuresWL) close() {}

// measure runs whole passes over every tiling in a seeded order.
func (w *figuresWL) measure(seconds float64, tr *tracer) *phase {
	ph := &phase{}
	best := newFastest()
	defer func() { ph.bestRate = best.rate() }()
	start := time.Now()
	op := int64(0)
	for time.Since(start).Seconds() < seconds {
		for _, i := range w.rng.Perm(len(w.items)) {
			it := &w.items[i]
			op++
			t0, c0 := time.Now(), cpuNow()
			res, err := w.one(it, tr, op)
			d, c := time.Since(t0).Seconds(), cpuNow()-c0
			ph.attempted++
			ph.wallBusy += d
			ph.cpuBusy += c
			if err != nil {
				ph.fail("%s: %v", it.label(w.figs), err)
				continue
			}
			ph.done(c, d, 1)
			best.note(i, d, 1)
			if res.Points != it.size {
				ph.fail("%s: tiling covers %d points, untiled nest has %d", it.label(w.figs), res.Points, it.size)
				continue
			}
			if prev := w.results[i]; prev == nil {
				w.results[i] = res
			} else if *prev != *res {
				ph.fail("%s: simulation not repeatable", it.label(w.figs))
			}
		}
	}
	return ph
}

// one is the pipeline under test: analyze → distribute → simulate.
func (w *figuresWL) one(it *figTiling, tr *tracer, op int64) (res *simnet.Result, err error) {
	root := tr.begin("bench.tiling", op, 0)
	defer tr.end(root)
	var ts *tiling.TiledSpace
	tr.call("tiling.Analyze", op, root, func() { ts, err = tiling.Analyze(it.app.Nest, it.fam.H(it.x, it.y, it.z)) })
	if err != nil {
		return nil, err
	}
	var d *distrib.Distribution
	tr.call("distrib.New", op, root, func() { d, err = distrib.New(ts, it.app.MapDim) })
	if err != nil {
		return nil, err
	}
	par := w.par
	par.Width = it.app.Width
	tr.call("simnet.Simulate", op, root, func() { res, err = simnet.Simulate(d, par) })
	return res, err
}

func (it *figTiling) label(figs []*bench.Figure) string {
	s := figs[it.fig].Sweeps[it.sweep]
	return fmt.Sprintf("%s %s %s x=%d,y=%d,z=%d", s.Fig, s.Space, it.fam.Name, it.x, it.y, it.z)
}

// verify rebuilds the figures from the measured results, renders them,
// and checks the paper's direction plus the pinned table digest.
func (w *figuresWL) verify(ph *phase) {
	series := map[[3]int]*bench.Point{}
	for i, it := range w.items {
		res := w.results[i]
		if res == nil {
			continue
		}
		k := [3]int{it.fig, it.sweep, it.point}
		pt := series[k]
		if pt == nil {
			pt = &bench.Point{Value: w.figs[it.fig].Sweeps[it.sweep].Values[it.point], X: it.x, Y: it.y, Z: it.z, Results: map[string]*simnet.Result{}}
			series[k] = pt
		}
		pt.Results[it.fam.Name] = res
	}
	var render strings.Builder
	improv := map[string][]float64{}
	for fi, f := range w.figs {
		fr := &bench.FigureResult{Figure: f}
		for si, s := range f.Sweeps {
			sr := &bench.Series{Sweep: s, Families: []string{s.App.Rect.Name}}
			for _, nr := range s.App.NonRect {
				sr.Families = append(sr.Families, nr.Name)
			}
			for pi := range s.Values {
				if pt := series[[3]int{fi, si, pi}]; pt != nil && len(pt.Results) == len(sr.Families) {
					sr.Points = append(sr.Points, *pt)
				}
			}
			if len(sr.Points) != len(s.Values) {
				ph.attempted++
				ph.fail("%s %s: only %d of %d sweep points completed", f.ID, s.Space, len(sr.Points), len(s.Values))
				return
			}
			fr.Series = append(fr.Series, sr)
		}
		render.WriteString(fr.Render())
		app := f.Sweeps[0].App.Name
		improv[app] = append(improv[app], fr.AverageImprovement())
	}
	for app, vs := range improv {
		ph.attempted++
		mean := 0.0
		for _, v := range vs {
			mean += v
		}
		if mean /= float64(len(vs)); !(mean > 0) {
			ph.fail("%s: average non-rect over rect improvement %.2f%% is not positive (paper §4.4)", app, mean)
		}
	}
	ph.attempted++
	sum := sha256.Sum256([]byte(render.String()))
	if got := hex.EncodeToString(sum[:8]); got != figuresDigest {
		ph.fail("rendered figure tables digest %s, pinned %s (regression check, not a reference)", got, figuresDigest)
	}
}

func (w *figuresWL) layers(tr *tracer, ph *phase, out map[string]float64) {
	st := tr.selfTimes()
	out["simnet.simulate_ms"] = st["simnet.Simulate"].MeanMS()
	out["simnet.simulate_calls"] = float64(st["simnet.Simulate"].Calls)
	out["tiling.analyze_ms"] = st["tiling.Analyze"].MeanMS()
	out["tiling.analyze_calls"] = float64(st["tiling.Analyze"].Calls)
	out["distrib.new_ms"] = st["distrib.New"].MeanMS()
}
