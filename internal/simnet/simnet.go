// Package simnet is a discrete-event simulator for executing a compiled
// tile schedule on a model cluster: per-node compute rates and an
// α + size/β network cost, calibrated by default to the paper's testbed
// (16 Pentium-III/500 nodes on switched FastEthernet, MPI over TCP).
//
// The simulator runs the exact §3.2 protocol the real executor runs — one
// message per (predecessor tile, processor direction) delivered at the
// minsucc tile, pack regions j'_k ≥ cc_k — but advances virtual clocks
// instead of touching data. Because every figure in the paper's evaluation
// is a speedup measurement whose shape is governed by the schedule length
// Π·⌊H·j_max⌋ and the per-step compute/communication costs, the simulator
// reproduces the rectangular-vs-non-rectangular comparisons without the
// authors' hardware.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tilespace/internal/distrib"
	"tilespace/internal/ilin"
	"tilespace/internal/mpi"
)

// Params is the cluster cost model.
type Params struct {
	// IterTime is the seconds of CPU per iteration point (per lattice
	// point of the nest, independent of Width — kernels stream all their
	// arrays in one pass).
	IterTime float64
	// ValueBytes is the wire size of one value (8 for float64).
	ValueBytes int
	// Width is the number of values per iteration point (ADI carries 2).
	Width int
	// Latency is the one-way network latency per message (α).
	Latency float64
	// Bandwidth is the sustained network bandwidth in bytes/second (β).
	Bandwidth float64
	// SendOverhead/RecvOverhead are per-message CPU costs (MPI stack,
	// system calls).
	SendOverhead float64
	RecvOverhead float64
	// PackTime is the CPU cost per value for packing or unpacking.
	PackTime float64
	// Overlap enables the computation–communication overlapping scheme of
	// the paper's future-work reference [8]: the sender's CPU only pays
	// SendOverhead and the transfer itself proceeds on the NIC in the
	// background.
	Overlap bool
	// Dynamic models the executor's hybrid static/dynamic scheduler
	// (exec.RunOptions.Dynamic): sends are always asynchronous, so the
	// model charges them exactly like Overlap — pack + SendOverhead on
	// the sender's CPU, transfer and fault perturbations on its NIC.
	// Eager message intake shifts unpack CPU earlier but leaves per-tile
	// totals unchanged, so in this cost model the dynamic arm's makespan
	// equals the overlap arm's; the flag exists so ablation code can ask
	// for a prediction per schedule mode by name.
	Dynamic bool
}

// FastEthernetPIII returns the cost model of the paper's testbed: 500 MHz
// Pentium III nodes (≈100 ns per stencil iteration at -O2) on switched
// FastEthernet with TCP MPI (≈70 µs one-way latency, ≈11 MB/s sustained).
func FastEthernetPIII() Params {
	return Params{
		IterTime:     100e-9,
		ValueBytes:   8,
		Width:        1,
		Latency:      70e-6,
		Bandwidth:    11e6,
		SendOverhead: 30e-6,
		RecvOverhead: 30e-6,
		PackTime:     20e-9,
	}
}

// NetOptions translates the cost model into the runtime's injected
// wire-cost options, so the same parameters drive both the simulator and
// the real executor (mpi.NewWorldOpts / exec.RunOptions.Net): each message
// costs Latency + SendOverhead plus (ValueBytes/Bandwidth + PackTime) per
// value. scale multiplies the modelled durations — the paper's µs-scale
// costs sit below OS timer resolution, so measurements scale them up.
// Whether the cost lands on the sending CPU (blocking) or the background
// NIC (Isend) is the runtime's overlap decision, mirroring the Overlap
// branch of Simulate.
func (p Params) NetOptions(scale float64) mpi.Options {
	perMsg := (p.Latency + p.SendOverhead) * scale
	perVal := (float64(p.ValueBytes)/p.Bandwidth + p.PackTime) * scale
	return mpi.Options{
		LinkLatency: time.Duration(perMsg * float64(time.Second)),
		PerValue:    time.Duration(perVal * float64(time.Second)),
	}
}

// Validate checks the parameters for usability.
func (p Params) Validate() error {
	if p.IterTime <= 0 || p.Bandwidth <= 0 || p.ValueBytes <= 0 || p.Width <= 0 {
		return fmt.Errorf("simnet: IterTime, Bandwidth, ValueBytes and Width must be positive")
	}
	if p.Latency < 0 || p.SendOverhead < 0 || p.RecvOverhead < 0 || p.PackTime < 0 {
		return fmt.Errorf("simnet: negative cost parameter")
	}
	return nil
}

// Result reports one simulated execution.
type Result struct {
	Makespan float64 // parallel completion time (seconds)
	SeqTime  float64 // Points × IterTime: the single-node baseline
	Speedup  float64 // SeqTime / Makespan

	Procs     int
	Tiles     int64
	Points    int64
	Messages  int64
	BytesSent int64

	// Steps is the linear-schedule length Π·(j^S_max − j^S_min) + 1 — the
	// quantity the paper's t_r/t_nr analysis predicts; non-rectangular
	// cone tilings shorten it.
	Steps int64
	// Utilization is total busy CPU time over Procs × Makespan.
	Utilization float64
}

// msgKey identifies one message by its sending tile's index in the
// tile-space bounding box and its direction's position in d.DM.
type msgKey struct {
	tile int64
	dm   int
}

// Simulate runs the tile schedule of a distribution under the cost model
// and returns the timing result.
func Simulate(d *distrib.Distribution, par Params) (*Result, error) {
	return simulate(d, par, nil)
}

// simulate is the engine; onEvent, when non-nil, receives one Event per
// tile (used by SimulateTraced).
func simulate(d *distrib.Distribution, par Params, onEvent func(Event)) (*Result, error) {
	return simulateFaults(d, par, nil, onEvent)
}

// simulateFaults is simulate under a fault model (nil fm = fault-free);
// see fault.go for what each fault class does to the clocks.
func simulateFaults(d *distrib.Distribution, par Params, fm *FaultModel, onEvent func(Event)) (*Result, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	var fs *faultState
	if fm != nil {
		if err := fm.Plan.Validate(); err != nil {
			return nil, err
		}
		fs = newFaultState(fm, d.NumProcs())
	}
	type tileRef struct {
		rank int
		t    int64
		wave int64
	}
	var tiles []tileRef
	for r := 0; r < d.NumProcs(); r++ {
		for t := int64(0); t < d.ChainLen[r]; t++ {
			jS := d.TileAt(r, t)
			var wave int64
			for _, x := range jS {
				wave += x
			}
			tiles = append(tiles, tileRef{rank: r, t: t, wave: wave})
		}
	}
	// Π = [1…1] wavefront order is topological for D^S ≥ 0, and it keeps
	// each chain in order (chain tiles differ in j^S_m only).
	sort.Slice(tiles, func(i, j int) bool {
		if tiles[i].wave != tiles[j].wave {
			return tiles[i].wave < tiles[j].wave
		}
		if tiles[i].rank != tiles[j].rank {
			return tiles[i].rank < tiles[j].rank
		}
		return tiles[i].t < tiles[j].t
	})

	res := &Result{Procs: d.NumProcs(), Tiles: int64(len(tiles))}
	if len(tiles) == 0 {
		return res, nil
	}
	box := ilin.NewBoxIndexer(d.TS.TileLo, d.TS.TileHi)
	// dmPos[i] is the position of DmOf(DS[i]) in d.DM; -1 when it is zero.
	dmPos := make([]int, len(d.TS.DS))
	for i, dS := range d.TS.DS {
		dmPos[i] = -1
		dm := d.DmOf(dS)
		for p, v := range d.DM {
			if v.Equal(dm) {
				dmPos[i] = p
			}
		}
	}
	procClock := make([]float64, d.NumProcs())
	nicFree := make([]float64, d.NumProcs())
	busy := make([]float64, d.NumProcs())
	arrivals := map[msgKey]float64{}

	counts := newCountCache(d)
	minWave, maxWave := int64(math.MaxInt64), int64(math.MinInt64)

	for _, tr := range tiles {
		if tr.wave < minWave {
			minWave = tr.wave
		}
		if tr.wave > maxWave {
			maxWave = tr.wave
		}
		tile := d.TileAt(tr.rank, tr.t)
		ti, ok := box.Index(tile)
		if !ok {
			return nil, fmt.Errorf("simnet: tile %v outside the tile-space box", tile)
		}
		now := procClock[tr.rank]

		// CRASH: the runtime kills the rank at the top of tile k's loop
		// iteration, so the penalty lands before this tile's receive. The
		// downtime (restart delay) is idle; the re-execution of the tiles
		// since the last snapshot is busy CPU.
		if fs != nil && !fs.crashed[tr.rank] && fm.Plan.CrashTile(tr.rank) == tr.t {
			fs.crashed[tr.rank] = true
			if onEvent != nil {
				onEvent(Event{Rank: tr.rank, Tile: fmt.Sprintf("slot=%d", tr.t), Kind: "crash",
					Start: now, RecvDone: now, CompDone: now, End: now})
			}
			now += fm.Plan.RestartDelay.Seconds() / fm.DurScale
			if onEvent != nil {
				onEvent(Event{Rank: tr.rank, Tile: fmt.Sprintf("slot=%d", tr.t), Kind: "restart",
					Start: now, RecvDone: now, CompDone: now, End: now})
			}
			now += fs.reExec[tr.rank]
			busy[tr.rank] += fs.reExec[tr.rank]
		}

		// redo accumulates what re-executing this tile after a later crash
		// would cost: unpack and pack repeat, the wire and the MPI stack
		// overheads do not (receives replay locally, delivered sends skip).
		var redo float64
		ev := Event{Rank: tr.rank, Start: now}
		if onEvent != nil {
			ev.Tile = tile.String()
		}

		// RECEIVE: wait for each due message, then pay unpack CPU.
		for i, dS := range d.TS.DS {
			if dmPos[i] < 0 {
				continue
			}
			dm := d.DM[dmPos[i]]
			pred := tile.Sub(dS)
			if !d.TS.ValidTile(pred) {
				continue
			}
			if ms, ok := d.MinSucc(pred, dm); !ok || !ms.Equal(tile) {
				continue
			}
			pi, _ := box.Index(pred)
			key := msgKey{pi, dmPos[i]}
			n := counts.region(pred, key)
			if n == 0 {
				continue
			}
			arr, ok := arrivals[key]
			if !ok {
				return nil, fmt.Errorf("simnet: message for tile %v from %v not yet sent — schedule order broken", tile, pred)
			}
			delete(arrivals, key)
			if arr > now {
				ev.Waited += arr - now
				now = arr // idle wait: not busy time
			}
			unpack := float64(n*int64(par.Width)) * par.PackTime
			cpu := par.RecvOverhead + unpack
			now += cpu
			busy[tr.rank] += cpu
			redo += unpack
		}

		ev.RecvDone = now

		// COMPUTE.
		pts := counts.points(tile, ti)
		res.Points += pts
		comp := float64(pts) * par.IterTime
		if fs != nil {
			comp *= fm.Plan.SlowdownOf(tr.rank)
		}
		now += comp
		busy[tr.rank] += comp
		redo += comp
		ev.CompDone = now

		// SEND: one message per processor direction with a valid successor.
		for p, dm := range d.DM {
			if !d.HasSuccessor(tile, dm) {
				continue
			}
			key := msgKey{ti, p}
			n := counts.region(tile, key)
			if n == 0 {
				continue
			}
			bytes := float64(n*int64(par.Width)) * float64(par.ValueBytes)
			pack := float64(n*int64(par.Width)) * par.PackTime
			// Injected link delay, jitter and retry backoffs hit this
			// message before transmission, paid where the runtime pays them:
			// the sender's CPU in blocking mode, its NIC in overlap mode.
			var pert float64
			if fs != nil {
				if dst, ok := d.Rank(d.Pids[tr.rank].Add(dm)); ok {
					pert = fs.sendPerturbation(tr.rank, dst)
				}
			}
			var arrive float64
			if par.Overlap || par.Dynamic {
				cpu := pack + par.SendOverhead
				now += cpu
				busy[tr.rank] += cpu
				start := math.Max(nicFree[tr.rank], now)
				nicFree[tr.rank] = start + pert + bytes/par.Bandwidth
				arrive = nicFree[tr.rank] + par.Latency
			} else {
				cpu := pack + par.SendOverhead + pert + bytes/par.Bandwidth
				now += cpu
				busy[tr.rank] += cpu
				arrive = now + par.Latency
			}
			arrivals[key] = arrive
			res.Messages++
			res.BytesSent += int64(bytes)
			redo += pack
		}

		procClock[tr.rank] = now
		ev.End = now
		if onEvent != nil {
			onEvent(ev)
		}
		if fs != nil {
			// Snapshot boundary: after committing tile t with (t+1) a
			// multiple of Every, a crash no longer re-executes anything up
			// to and including t.
			if (tr.t+1)%fm.CheckpointEvery == 0 {
				fs.reExec[tr.rank] = 0
			} else {
				fs.reExec[tr.rank] += redo
			}
		}
	}

	for _, c := range procClock {
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	var totalBusy float64
	for _, b := range busy {
		totalBusy += b
	}
	res.SeqTime = float64(res.Points) * par.IterTime
	if res.Makespan > 0 {
		res.Speedup = res.SeqTime / res.Makespan
		res.Utilization = totalBusy / (float64(res.Procs) * res.Makespan)
	}
	if len(tiles) > 0 {
		res.Steps = maxWave - minWave + 1
	}
	return res, nil
}

// countCache memoizes per-tile point counts and communication-region
// sizes, with constant-time answers for tiles fully inside the space.
// Tiles are keyed by their tile-space box index, directions by their
// position in d.DM.
type countCache struct {
	d          *distrib.Distribution
	full       map[int64]bool
	fullRegion map[int]int64
	pts        map[int64]int64
	regions    map[msgKey]int64
}

func newCountCache(d *distrib.Distribution) *countCache {
	return &countCache{
		d: d, full: map[int64]bool{},
		fullRegion: map[int]int64{}, pts: map[int64]int64{}, regions: map[msgKey]int64{},
	}
}

func (c *countCache) fullInside(jS ilin.Vec, ti int64) bool {
	if v, ok := c.full[ti]; ok {
		return v
	}
	v := c.d.TS.TileFullyInside(jS)
	c.full[ti] = v
	return v
}

func (c *countCache) points(jS ilin.Vec, ti int64) int64 {
	if c.fullInside(jS, ti) {
		return c.d.TS.T.TileSize
	}
	if v, ok := c.pts[ti]; ok {
		return v
	}
	v := c.d.TS.CountTilePoints(jS, nil)
	c.pts[ti] = v
	return v
}

// region returns the size of tile jS's message along direction d.DM[k.dm];
// k.tile is jS's box index.
func (c *countCache) region(jS ilin.Vec, k msgKey) int64 {
	dm := c.d.DM[k.dm]
	if c.fullInside(jS, k.tile) {
		if v, ok := c.fullRegion[k.dm]; ok {
			return v
		}
		v := c.d.FullTileCommCount(dm)
		c.fullRegion[k.dm] = v
		return v
	}
	if v, ok := c.regions[k]; ok {
		return v
	}
	v := c.d.CommRegionCount(jS, dm)
	c.regions[k] = v
	return v
}
