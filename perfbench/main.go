// Command perfbench is the repository's benchmark: three seeded
// workloads (paper-figures, cluster-run, service-mix) that drive the
// compiler, simulator, executor, transports and service through their
// public calls, check every output, and print one JSON result line.
//
//	perfbench --workload cluster-run --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is split into an untraced and a traced half and the
// result carries the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// phase is one measured stretch of a workload. Every operation is timed
// on two clocks: the process CPU clock, which the end-to-end metrics
// read, and the wall clock, which the stamp line reports beside them.
type phase struct {
	cpu       []float64 // per-operation CPU seconds
	lat       []float64 // per-operation wall seconds
	work      float64   // work units done (tilings, iteration points, requests)
	cpuBusy   float64   // CPU seconds the work took: the work_per_cpu_s denominator
	wallBusy  float64   // wall seconds the work took
	bestRate  float64   // best_wall_work_per_s, set by the workload's measure
	attempted int64
	failed    int64
	problems  []string
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.problems) < 8 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// done records one successful operation.
func (ph *phase) done(cpu, wall, work float64) {
	ph.cpu = append(ph.cpu, cpu)
	ph.lat = append(ph.lat, wall)
	ph.work += work
}

// fastest keeps, for every operation that recurs once per round, its
// fastest wall time in the run and the work it does. Work of one round
// over the sum of those times is a wall-clock throughput that a CPU
// stolen by the hypervisor only lowers when it hits every repetition of
// the same operation.
type fastest struct {
	wall, work map[int]float64
}

func newFastest() *fastest {
	return &fastest{wall: map[int]float64{}, work: map[int]float64{}}
}

func (f *fastest) note(op int, wall, work float64) {
	if w, ok := f.wall[op]; !ok || wall < w {
		f.wall[op] = wall
	}
	f.work[op] = work
}

func (f *fastest) rate() float64 {
	var wall, work float64
	for op, w := range f.wall {
		wall += w
		work += f.work[op]
	}
	if wall <= 0 {
		return 0
	}
	return work / wall
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// cpuNow is the process's CPU time, all threads, in seconds
// (CLOCK_PROCESS_CPUTIME_ID). On a shared virtual machine it does not
// advance while the hypervisor has the vCPU descheduled, which the wall
// clock does.
func cpuNow() float64 {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", e))
	}
	return float64(ts.Nano()) / 1e9
}

// workload is one prepared benchmark input set.
type workload interface {
	// measure runs operations for at least the given seconds (whole
	// rounds where the workload has them) and checks each output.
	measure(seconds float64, tr *tracer) *phase
	// verify runs the end-of-run output checks over everything measure
	// produced; each check counts as one attempted operation.
	verify(ph *phase)
	// layers fills per-layer metrics from a traced phase.
	layers(tr *tracer, ph *phase, out map[string]float64)
	close()
}

type workloadDef struct {
	name string
	why  string
	// tail is the percentile reported as op_cpu_tail_ms; see README.md
	// for why these.
	tail float64
	// unit names the work counted by work_per_cpu_s.
	unit  string
	setup func(rng *rand.Rand, tr *tracer) (workload, error)
}

var workloads = []workloadDef{
	{
		name: "paper-figures",
		why:  "the paper's Figs 5-10 through the simulator at 1/4 scale: analysis, distribution and simulate only",
		tail: 90, unit: "tilings",
		setup: setupFigures,
	},
	{
		name: "cluster-run",
		why:  "compiled programs on the real executor across static, overlap, dynamic, TCP and intra-tile arms",
		tail: 90, unit: "iteration points",
		setup: setupCluster,
	},
	{
		name: "service-mix",
		why:  "closed loop of 2 clients on the HTTP service: parse, certify, codegen, cache hits and misses, small runs",
		tail: 99, unit: "requests",
		setup: setupService,
	},
}

// setupReps is how many times the set-up is repeated for setup_s.
const setupReps = 3

// deadline bounds a whole run: an operation that deadlocks never
// returns, so the run fails instead of hanging.
const deadline = 160 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-figures, cluster-run or service-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v\n", def.name, deadline)
		os.Exit(3)
	})
	if err := run(def, *seed, *seconds, *traceOn == 1, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		os.Exit(1)
	}
}

func run(def *workloadDef, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) error {
	res := result{Metrics: map[string]metric{}}
	samples := map[string]int{}
	var wall map[string]float64       // wall-clock counterparts, for the stamp
	var layerSelfS map[string]float64 // traced self time by layer, for the stamp
	var ph *phase

	if !traced {
		var setups []float64
		var w workload
		for i := 0; i < setupReps; i++ {
			if w != nil {
				w.close()
			}
			c0 := cpuNow()
			var err error
			if w, err = def.setup(rand.New(rand.NewSource(seed)), nil); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, cpuNow()-c0)
			// Collect the previous set-ups' garbage, so the measured
			// stretch starts from the same heap on every run.
			runtime.GC()
		}
		defer w.close()
		ph = w.measure(seconds, nil)
		w.verify(ph)
		if len(ph.cpu) == 0 || ph.cpuBusy <= 0 {
			return fmt.Errorf("no operation completed")
		}
		cpu := sorted(ph.cpu)
		lat := sorted(ph.lat)
		set := func(k string, v float64, unit string, n int) {
			res.Metrics[k] = metric{v, unit}
			samples[k] = n
		}
		set("setup_s", median(setups), "s", len(setups))
		set("peak_rss_mb", peakRSSMB(), "MB", 1)
		set("work_per_cpu_s", ph.work/ph.cpuBusy, "1/s", len(cpu))
		set("op_cpu_p50_ms", percentile(cpu, 50)*1e3, "ms", len(cpu))
		set("op_cpu_tail_ms", percentile(cpu, def.tail)*1e3, "ms", len(cpu))
		if beyond := len(cpu) - int(float64(len(cpu))*def.tail/100); beyond < 10 {
			fmt.Fprintf(stderr, "perfbench: warning: only %d samples beyond p%g\n", beyond, def.tail)
		}
		wall = map[string]float64{
			"work_per_s":      ph.work / ph.wallBusy,
			"op_p50_ms":       percentile(lat, 50) * 1e3,
			"op_tail_ms":      percentile(lat, def.tail) * 1e3,
			"cpu_share":       ph.cpuBusy / ph.wallBusy,
			"best_work_per_s": ph.bestRate,
		}
	} else {
		tr := newTracer()
		w, err := def.setup(rand.New(rand.NewSource(seed)), tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		defer w.close()
		base := w.measure(seconds/2, nil)
		w.verify(base)
		ph = w.measure(seconds/2, tr)
		w.verify(ph)
		ph.attempted += base.attempted
		ph.failed += base.failed
		ph.problems = append(base.problems, ph.problems...)
		layers := map[string]float64{}
		w.layers(tr, ph, layers)
		if b := mean(base.cpu); b > 0 {
			layers["trace.overhead_ratio"] = mean(ph.cpu) / b
		}
		layers["error_rate"] = float64(ph.failed) / float64(max(ph.attempted, 1))
		// Measured with tracing off. Not gated: see README.md, Clocks.
		layers["best_wall_work_per_s"] = base.bestRate
		for k, v := range layers {
			res.Metrics[k] = metric{Value: v}
		}
		layerSelfS = layerSelf(tr.selfTimes())
		samples["traced_ops"] = len(ph.cpu)
		samples["untraced_ops"] = len(base.cpu)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", def.name, seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}

	if err := declare(res.Metrics, traced); err != nil {
		return err
	}
	res.Attempted = max(ph.attempted, 1)
	res.Failed = ph.failed
	res.Correct = ph.failed == 0
	for _, p := range ph.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", p)
	}
	stamp := map[string]any{
		"workload":   def.name,
		"why":        def.why,
		"work_unit":  def.unit,
		"tail":       fmt.Sprintf("p%g", def.tail),
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"samples":    samples,
		"wall_clock": wall,
		"self_s":     layerSelfS,
		"error_rate": float64(res.Failed) / float64(res.Attempted),
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stderr, "  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// declare checks the metrics against BENCHMARK.json, read from the
// working directory: every metric of the run's kind (end_to_end, or
// per_layer when traced) is present, none is undeclared, and each
// carries its declared unit. A layer idle on this workload reads 0.
func declare(ms map[string]metric, traced bool) error {
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list, kind := spec.EndToEnd, "end_to_end"
	if traced {
		list, kind = spec.PerLayer, "per_layer"
	}
	units := map[string]string{}
	for _, m := range list {
		units[m.Name] = m.Unit
		v, ok := ms[m.Name]
		if !ok && !traced {
			return fmt.Errorf("%s metric %q is not measured", kind, m.Name)
		}
		if ok && v.Unit != "" && v.Unit != m.Unit {
			return fmt.Errorf("%s metric %q measured in %s, declared in %s", kind, m.Name, v.Unit, m.Unit)
		}
		ms[m.Name] = metric{v.Value, m.Unit}
	}
	for k := range ms {
		if _, ok := units[k]; !ok {
			return fmt.Errorf("metric %q is not declared in %s", k, kind)
		}
	}
	return nil
}

// commit identifies the measured source: the VCS revision when the
// binary was built inside a git checkout, marked +dirty when the tree
// had uncommitted changes, then always a digest of every Go source and
// go.mod under the working directory, which tells two dirty trees on
// one revision apart and is all a checkout without git has.
func commit() string {
	rev := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value + rev
			case s.Key == "vcs.modified" && s.Value == "true":
				rev += "+dirty"
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(buf))
		h.Write(buf)
	}
	return strings.TrimSpace(rev + " src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16])
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
