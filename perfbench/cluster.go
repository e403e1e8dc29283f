package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"tilespace/internal/apps"
	"tilespace/internal/exec"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
	"tilespace/internal/tiling"
)

// clusterApps are the compiled programs of cluster-run: each app with its
// rect family and its first non-rect family, at tile factors (x, y, z).
var clusterApps = []struct {
	build   func() (*apps.App, error)
	x, y, z int64
}{
	{func() (*apps.App, error) { return apps.SOR(8, 16) }, 4, 8, 8},
	{func() (*apps.App, error) { return apps.Jacobi(8, 16) }, 2, 8, 8},
	{func() (*apps.App, error) { return apps.ADI(8, 16) }, 2, 4, 4},
	{func() (*apps.App, error) { return apps.Heat3D(4, 8) }, 2, 6, 6},
}

// The single-rank Jacobi chain: y and z cover the whole skewed extent, so
// every tile maps to one processor and the intra-tile pool does the work.
const (
	chainT, chainN = 8, 16
	chainWorkers   = 2
)

type clusterProg struct {
	name   string
	prog   *exec.Program
	oracle *exec.Global
	points int64
	tcp    *mpi.World // loopback TCP world for the tcp-overlap arm
	stats  *mpi.Stats // arm-independent traffic, from the first run
}

type clusterArm struct {
	prog *clusterProg
	name string
}

func (a clusterArm) options() exec.RunOptions {
	opt := exec.RunOptions{Workers: 1}
	switch a.name {
	case "overlap":
		opt.Overlap = true
	case "dynamic":
		opt.Dynamic = true
	case "tcp-overlap":
		opt.Overlap = true
		opt.World = a.prog.tcp
	case "workers2":
		opt.Workers = chainWorkers
	}
	return opt
}

// clusterAgg accumulates one measured phase's per-layer inputs.
type clusterAgg struct {
	runs                                             int
	wait, unpack, compute, send, drain, queued, busy time.Duration
	poolHits, poolMisses                             int
	tcpRuns                                          int
	wire                                             mpi.WireStats
	tcpTime, chanOverlapTime                         float64
}

type clusterWL struct {
	rng   *rand.Rand
	progs []*clusterProg
	arms  []clusterArm
	agg   clusterAgg
}

func setupCluster(rng *rand.Rand, tr *tracer) (_ workload, err error) {
	w := &clusterWL{rng: rng}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	add := func(name string, app *apps.App, h *ilin.RatMat, arms ...string) error {
		op := int64(len(w.progs) + 1)
		root := tr.begin("bench.compile", op, 0)
		defer tr.end(root)
		var (
			ts  *tiling.TiledSpace
			err error
		)
		tr.call("tiling.Analyze", op, root, func() { ts, err = tiling.Analyze(app.Nest, h) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cp := &clusterProg{name: name}
		w.progs = append(w.progs, cp)
		tr.call("exec.NewProgram", op, root, func() {
			cp.prog, err = exec.NewProgram(ts, app.MapDim, app.Width, app.Kernel, app.Initial)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tr.call("exec.RunSequential", op, root, func() { cp.oracle, err = cp.prog.RunSequential() })
		if err != nil {
			return fmt.Errorf("%s oracle: %w", name, err)
		}
		if cp.points, err = app.Nest.Size(); err != nil {
			return err
		}
		for _, a := range arms {
			if a == "tcp-overlap" {
				tr.call("mpi.NewTCPWorld", op, root, func() {
					cp.tcp, err = mpi.NewTCPWorld(cp.prog.Dist.NumProcs(), mpi.Options{})
				})
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				// The mesh dials its links on first use: one run over it
				// finishes connecting before anything is timed.
				tr.call("exec.RunParallelOpts", op, root, func() {
					_, _, err = cp.prog.RunParallelOpts(exec.RunOptions{Overlap: true, Workers: 1, World: cp.tcp})
				})
				if err != nil {
					return fmt.Errorf("%s over tcp: %w", name, err)
				}
			}
			w.arms = append(w.arms, clusterArm{cp, a})
		}
		return nil
	}
	for _, ca := range clusterApps {
		app, err := ca.build()
		if err != nil {
			return nil, err
		}
		for _, fam := range []apps.TilingFamily{app.Rect, app.NonRect[0]} {
			err := add(app.Name+"/"+fam.Name, app, fam.H(ca.x, ca.y, ca.z),
				"blocking", "overlap", "dynamic", "tcp-overlap")
			if err != nil {
				return nil, err
			}
		}
	}
	chain, err := apps.Jacobi(chainT, chainN)
	if err != nil {
		return nil, err
	}
	if err := add("jacobi/chain", chain, chain.Rect.H(2, 2*(chainT+chainN), 2*(chainT+chainN)), "workers2"); err != nil {
		return nil, err
	}
	if n := w.progs[len(w.progs)-1].prog.Dist.NumProcs(); n != 1 {
		return nil, fmt.Errorf("jacobi/chain maps to %d ranks, want 1", n)
	}
	return w, nil
}

func (w *clusterWL) close() {
	for _, cp := range w.progs {
		if cp.tcp != nil {
			cp.tcp.Close()
		}
	}
}

// measure runs whole rounds; a round is every (program, arm) pair once,
// in a seeded order.
func (w *clusterWL) measure(seconds float64, tr *tracer) *phase {
	ph := &phase{}
	best := newFastest()
	w.agg = clusterAgg{}
	start := time.Now()
	op := int64(0)
	var et *exec.Tracer
	if tr != nil {
		et = exec.NewTracer()
	}
	for time.Since(start).Seconds() < seconds {
		for _, i := range w.rng.Perm(len(w.arms)) {
			op++
			if wall, ok := w.runArm(w.arms[i], ph, tr, et, op); ok {
				best.note(i, wall, float64(w.arms[i].prog.points))
			}
		}
	}
	ph.bestRate = best.rate()
	return ph
}

// runArm runs one (program, arm) pair and checks its output; it returns
// the run's wall seconds and whether the run completed.
func (w *clusterWL) runArm(a clusterArm, ph *phase, tr *tracer, et *exec.Tracer, op int64) (float64, bool) {
	opt := a.options()
	opt.Trace = et
	var before mpi.WireStats
	if opt.World != nil {
		before, _ = opt.World.WireStats()
	}
	id := tr.begin("exec.RunParallelOpts", op, 0)
	t0, c0 := time.Now(), cpuNow()
	g, stats, err := a.prog.prog.RunParallelOpts(opt)
	d, c := time.Since(t0).Seconds(), cpuNow()-c0
	tr.end(id)
	ph.attempted++
	ph.wallBusy += d
	ph.cpuBusy += c
	label := a.prog.name + " " + a.name
	if err != nil {
		ph.fail("%s: %v", label, err)
		return d, false
	}
	ph.done(c, d, float64(a.prog.points))
	if at := firstDiff(a.prog.prog, g, a.prog.oracle); at != nil {
		ph.fail("%s: Global differs from the sequential oracle at %v", label, at)
	}
	norm := armIndependent(stats)
	if a.prog.stats == nil {
		a.prog.stats = &norm
	} else if !reflect.DeepEqual(*a.prog.stats, norm) {
		ph.fail("%s: mpi.Stats %+v differ from another arm's %+v", label, norm, *a.prog.stats)
	}

	ag := &w.agg
	switch a.name {
	case "overlap":
		ag.chanOverlapTime += d
	case "tcp-overlap":
		after, _ := opt.World.WireStats()
		ag.tcpTime += d
		ag.tcpRuns++
		ag.wire.FramesSent += after.FramesSent - before.FramesSent
		ag.wire.BytesSent += after.BytesSent - before.BytesSent
		ag.wire.Batches += after.Batches - before.Batches
		ag.wire.Resent += after.Resent - before.Resent
	}
	if et != nil {
		ag.runs++
		for _, m := range et.PerRank() {
			ag.wait += m.Wait
			ag.unpack += m.Unpack
			ag.compute += m.Compute
			ag.send += m.Send
			ag.drain += m.Drain
			ag.queued += m.Queued
			ag.poolHits += m.PoolHits
			ag.poolMisses += m.PoolMisses
			for _, b := range m.WorkerBusy {
				ag.busy += b
			}
		}
	}
	return d, true
}

// armIndependent is the part of mpi.Stats every arm of one program must
// reproduce exactly: blocking and overlapped sends are one count, since
// the arms differ precisely in which send primitive they use.
func armIndependent(s mpi.Stats) mpi.Stats {
	s.OverlappedSends += s.BlockingSends
	s.BlockingSends = 0
	s.PerRank = append([]mpi.RankTraffic(nil), s.PerRank...)
	for i := range s.PerRank {
		s.PerRank[i].OverlappedSends += s.PerRank[i].BlockingSends
		s.PerRank[i].BlockingSends = 0
	}
	return s
}

// firstDiff returns the first iteration point whose values differ bit
// for bit between two Globals, or nil.
func firstDiff(p *exec.Program, a, b *exec.Global) ilin.Vec {
	var at ilin.Vec
	p.ScanSpace(func(j ilin.Vec) bool {
		va, vb := a.At(j), b.At(j)
		for k := range va {
			if math.Float64bits(va[k]) != math.Float64bits(vb[k]) {
				at = j.Clone()
				return false
			}
		}
		return true
	})
	return at
}

// verify: every run is checked as it completes.
func (w *clusterWL) verify(ph *phase) {}

func (w *clusterWL) layers(tr *tracer, ph *phase, out map[string]float64) {
	st := tr.selfTimes()
	out["tiling.analyze_ms"] = st["tiling.Analyze"].MeanMS()
	out["tiling.analyze_calls"] = float64(st["tiling.Analyze"].Calls)
	out["exec.new_program_ms"] = st["exec.NewProgram"].MeanMS()

	ag := w.agg
	if ag.runs > 0 {
		per := func(d time.Duration) float64 { return d.Seconds() / float64(ag.runs) }
		out["exec.wait_s"] = per(ag.wait)
		out["exec.unpack_init_s"] = per(ag.unpack)
		out["exec.compute_s"] = per(ag.compute)
		out["exec.send_s"] = per(ag.send)
		out["exec.drain_s"] = per(ag.drain)
		out["exec.queued_s"] = per(ag.queued)
		out["exec.worker_busy_s"] = per(ag.busy)
	}
	if n := ag.poolHits + ag.poolMisses; n > 0 {
		out["exec.pool_hit_ratio"] = float64(ag.poolHits) / float64(n)
	}
	if ag.tcpRuns > 0 {
		out["wire.frames_sent"] = float64(ag.wire.FramesSent) / float64(ag.tcpRuns)
		out["wire.bytes_sent"] = float64(ag.wire.BytesSent) / float64(ag.tcpRuns)
		out["wire.resent"] = float64(ag.wire.Resent)
	}
	if ag.wire.Batches > 0 {
		out["wire.frames_per_batch"] = float64(ag.wire.FramesSent) / float64(ag.wire.Batches)
	}
	if ag.chanOverlapTime > 0 {
		out["wire.tcp_over_channel"] = ag.tcpTime / ag.chanOverlapTime
	}

	// Exact traffic of one round: every (program, arm) pair once.
	var msgs, vals, retries, points int64
	for _, a := range w.arms {
		if s := a.prog.stats; s != nil {
			msgs += s.Messages
			vals += s.Values
			retries += s.SendRetries
			points += a.prog.points
		}
	}
	out["mpi.messages"] = float64(msgs)
	out["mpi.values"] = float64(vals)
	out["mpi.send_retries"] = float64(retries)
	if points > 0 {
		out["mpi.values_per_point"] = float64(vals) / float64(points)
	}

	// Compute phase alone, over rank 0's chain of every program.
	var kpts int64
	var ksec float64
	for i, cp := range w.progs {
		workers := 1
		if cp.prog.Dist.NumProcs() == 1 {
			workers = chainWorkers
		}
		var (
			n   int64
			sec float64
			err error
		)
		tr.call("exec.ComputeSweep", int64(-i-1), 0, func() { n, sec, err = cp.prog.ComputeSweep(0, workers, 3) })
		if err == nil {
			kpts += n
			ksec += sec
		}
	}
	if ksec > 0 {
		out["exec.kernel_points_per_s"] = float64(kpts) / ksec
	}
}
