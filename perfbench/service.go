package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"tilespace/internal/codegen"
	"tilespace/internal/exec"
	"tilespace/internal/frontend"
	"tilespace/internal/serve"
	"tilespace/internal/tiling"
	"tilespace/internal/verify"
)

// The traffic of service-mix. Each number below has a stated basis; the
// ones marked assumption have no measurement behind them and stand until
// request traces of the service are committed.
const (
	// serviceClients is the closed loop's client count: nproc of the
	// 2-vCPU machine the figures in README.md were measured on.
	serviceClients = 2
	// popularSpecs is the population of the one service schedule the
	// repository records (bench.RunServeExperiment: 8 distinct specs).
	popularSpecs = 8
	// popularity is the exponent of the Zipf-like spec popularity, rank r
	// drawn with weight 1/(r+1)^popularity. Assumption: a value inside
	// the 0.64-0.83 range Breslau et al. measured on web proxy traces
	// ("Web Caching and Zipf-like Distributions", INFOCOM 1999).
	popularity = 0.8
	// freshEvery: one request in this many, at a seeded place in each
	// block, names a spec never seen before. The recorded schedule's warm
	// phase compiled 8 specs in 384 requests, one in 48.
	freshEvery = 48
	// cycleLen is the length of the recorded schedule's endpoint cycle.
	cycleLen = 24
)

// schedule is one client's cycle of endpoints, from the recorded
// schedule: in 24 requests, every eighth is a run and every third of the
// others an analyze, the rest certify (3 run, 7 analyze, 14 certify). It
// sends no codegen, so one certify becomes a codegen (assumption: the
// smallest share that keeps codegen on the request path). The seed
// shuffles each cycle.
func schedule() []string {
	s := make([]string, cycleLen)
	for i := range s {
		switch {
		case i%8 == 7:
			s[i] = "run"
		case i%3 == 0:
			s[i] = "analyze"
		default:
			s[i] = "certify"
		}
	}
	s[1] = "codegen"
	return s
}

// heatTiles are the recorded schedule's tile choices for its heat specs.
var heatTiles = []string{"1/3 0 / 0 1/4", "1/3 0 / 0 1/6", "1/2 0 / 0 1/4"}

// specTemplates are the stencil shapes of the population, in the order
// they go round-robin down the popularity ranks, so every seed gives each
// shape the same share of traffic. c is a per-spec constant term that
// makes every spec its own cache key, as the recorded specs do.
var specTemplates = []func(rng *rand.Rand, c int) string{
	func(rng *rand.Rand, c int) string { // 2-D heat: the recorded schedule's specs
		return fmt.Sprintf("let M = 8\nlet N = %d\nfor t = 1 .. M\nfor i = 1 .. N\n"+
			"A[t,i] = 0.5*(A[t-1,i] + A[t,i-1]) + %d\ntile %s\n",
			24+8*rng.Intn(5), c, heatTiles[rng.Intn(len(heatTiles))])
	},
	func(rng *rand.Rand, c int) string { // 3-D SOR, the paper's §4.1, as the front end's test spec
		return fmt.Sprintf("let M = 6\nlet N = 10\nfor t = 1 .. M\nfor i = 1 .. N\nfor j = 1 .. N\n"+
			"A[t,i,j] = 0.3*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) - 0.2*A[t-1,i,j] + %d\n"+
			"skew 1 0 0 / 1 1 0 / 2 0 1\ntile 1/3 0 0 / 0 1/7 0 / -1/4 0 1/4\nmap 3\n", c)
	},
	func(rng *rand.Rand, c int) string { // 3-D ADI, two arrays, as the code generator's pipeline test spec
		return fmt.Sprintf("let T = 5\nlet N = 9\nfor t = 1 .. T\nfor i = 1 .. N\nfor j = 1 .. N\n"+
			"X[t,i,j] = X[t-1,i,j] + X[t-1,i,j-1]*0.05/B[t-1,i,j-1] - X[t-1,i-1,j]*0.05/B[t-1,i-1,j] + %d\n"+
			"B[t,i,j] = B[t-1,i,j] - 0.05*0.05/B[t-1,i,j-1] - 0.05*0.05/B[t-1,i-1,j]\n"+
			"tile 1/2 0 0 / 0 1/3 0 / 0 0 1/3\nmap 1\n", c)
	},
}

// client is one closed-loop client's seeded request stream.
type client struct {
	rng     *rand.Rand
	cycle   []string // this cycle's endpoint order
	sent    int
	freshAt int // place of the fresh spec in the current block
	fresh   int // constant of the last fresh spec
}

// oracle is what the service must answer for one spec, computed outside
// the server through the public calls.
type oracle struct {
	points   int64
	checksum string
}

// reply is one completed request as the client saw it.
type reply struct {
	spec     string
	endpoint string
	status   int
	lat      float64 // wall seconds
	end      float64 // wall seconds from the stretch's start to the reply
	cpu      float64 // CPU seconds, shared out by cpuLedger
	hit      bool
	points   int64
	checksum string
	code     bool
	err      string
}

type serviceWL struct {
	popular []string
	cum     []float64 // cumulative popularity by rank, ending at 1
	clients []*client
	oracles map[string]*oracle
	replies []reply
	metrics serve.MetricsSnapshot
}

func setupService(rng *rand.Rand, tr *tracer) (workload, error) {
	w := &serviceWL{oracles: map[string]*oracle{}}
	total := 0.0
	for i := 0; i < popularSpecs; i++ {
		w.popular = append(w.popular, specTemplates[i%len(specTemplates)](rng, i+1))
		total += math.Pow(float64(i+1), -popularity)
		w.cum = append(w.cum, total)
	}
	for i := range w.cum {
		w.cum[i] /= total
	}
	for c := 0; c < serviceClients; c++ {
		w.clients = append(w.clients, &client{rng: rand.New(rand.NewSource(rng.Int63())), fresh: (c + 1) * 1000000})
	}
	for i, spec := range w.popular {
		if _, err := w.oracle(spec, true); err != nil {
			return nil, fmt.Errorf("popular spec %d: %w\n%s", i, err, spec)
		}
	}
	return w, nil
}

func (w *serviceWL) close() {}

// oracle returns the answers the service must give for one spec. The
// checksum, which needs the whole pipeline and a sequential run, is
// computed only for specs that were run.
func (w *serviceWL) oracle(spec string, withChecksum bool) (*oracle, error) {
	o := w.oracles[spec]
	if o == nil {
		p, err := frontend.Parse(spec)
		if err != nil {
			return nil, err
		}
		o = &oracle{}
		if o.points, err = p.Nest.Size(); err != nil {
			return nil, err
		}
		w.oracles[spec] = o
	}
	if withChecksum && o.checksum == "" {
		full, err := replay(spec, nil, 0)
		if err != nil {
			return nil, err
		}
		o.checksum = full.checksum
	}
	return o, nil
}

// replay runs one spec's pipeline outside the server — parse, analyze,
// compile, certify, generate, run sequentially — through the public
// calls. Each call is a span, so a traced replay attributes the cost of
// a cache miss layer by layer.
func replay(spec string, tr *tracer, op int64) (*oracle, error) {
	root := tr.begin("bench.replay", op, 0)
	defer tr.end(root)
	var (
		p    *frontend.Program
		ts   *tiling.TiledSpace
		prog *exec.Program
		g    *exec.Global
		err  error
	)
	if tr.call("frontend.Parse", op, root, func() { p, err = frontend.Parse(spec) }); err != nil {
		return nil, err
	}
	if tr.call("tiling.Analyze", op, root, func() { ts, err = tiling.Analyze(p.Nest, p.Tiling) }); err != nil {
		return nil, err
	}
	if tr.call("exec.NewProgram", op, root, func() { prog, err = exec.NewProgram(ts, p.MapDim, p.Width, p.Kernel, nil) }); err != nil {
		return nil, err
	}
	if tr.call("verify.Certify", op, root, func() { _, err = verify.Certify(prog.TS, prog.Dist) }); err != nil {
		return nil, err
	}
	tr.call("codegen.Generate", op, root, func() {
		var gen *codegen.Generator
		if gen, err = codegen.New(prog.Dist, codegen.Options{Name: "perfbench", Width: p.Width, KernelStmt: p.KernelC}); err == nil {
			gen.Generate()
		}
	})
	if err != nil {
		return nil, err
	}
	if tr.call("exec.RunSequential", op, root, func() { g, err = prog.RunSequential() }); err != nil {
		return nil, err
	}
	o := &oracle{checksum: (&serve.Artifact{Prog: prog}).Checksum(g)}
	o.points, err = p.Nest.Size()
	return o, err
}

// next draws one client's next request.
func (w *serviceWL) next(c int) (endpoint, spec string) {
	cl := w.clients[c]
	i := cl.sent
	cl.sent++
	if i%cycleLen == 0 {
		cl.cycle = schedule()
		cl.rng.Shuffle(len(cl.cycle), func(a, b int) { cl.cycle[a], cl.cycle[b] = cl.cycle[b], cl.cycle[a] })
	}
	if i%freshEvery == 0 {
		cl.freshAt = cl.rng.Intn(freshEvery)
	}
	if i%freshEvery == cl.freshAt {
		cl.fresh++
		spec = specTemplates[cl.fresh%len(specTemplates)](cl.rng, cl.fresh)
	} else {
		r := sort.SearchFloat64s(w.cum, cl.rng.Float64())
		spec = w.popular[min(r, popularSpecs-1)]
	}
	return cl.cycle[i%cycleLen], spec
}

// measure runs the closed loop against a fresh server with the default
// Config, so each phase starts with a cold plan cache.
func (w *serviceWL) measure(seconds float64, tr *tracer) *phase {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = serviceClients

	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		ops int64
	)
	w.replies = w.replies[:0]
	ledger := &cpuLedger{inFlight: map[int64]*float64{}}
	start, c0 := time.Now(), cpuNow()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				ep, spec := w.next(c)
				ops++
				op := ops
				mu.Unlock()
				id := tr.begin("serve."+ep, op, 0)
				ledger.start(op)
				r := post(client, ts.URL, ep, spec)
				r.end = time.Since(start).Seconds()
				r.cpu = ledger.end(op)
				tr.end(id)
				mu.Lock()
				w.replies = append(w.replies, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{wallBusy: time.Since(start).Seconds(), cpuBusy: cpuNow() - c0}
	ph.attempted++
	w.metrics = serve.MetricsSnapshot{}
	if resp, err := client.Get(ts.URL + "/metrics"); err != nil {
		ph.fail("/metrics: %v", err)
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&w.metrics); err != nil {
			ph.fail("/metrics: %v", err)
		}
		resp.Body.Close()
	}
	for _, r := range w.replies {
		ph.attempted++
		if r.status != http.StatusOK {
			ph.fail("%s: status %d: %s", r.endpoint, r.status, r.err)
			continue
		}
		ph.done(r.cpu, r.lat, 1)
	}
	ph.bestRate = windowRate(w.replies, ph.wallBusy)
	return ph
}

// serviceWindow is the length of the windows windowRate counts in.
const serviceWindow = 0.5

// windowRate is the upper quartile of the successful requests per wall
// second over the stretch's whole windows. Requests do not recur in
// rounds here; the upper quartile drops the windows a CPU stolen by the
// hypervisor slowed, as long as those are fewer than three in four.
func windowRate(replies []reply, wall float64) float64 {
	counts := make([]float64, int(wall/serviceWindow))
	for _, r := range replies {
		if i := int(r.end / serviceWindow); r.status == http.StatusOK && i < len(counts) {
			counts[i]++
		}
	}
	sort.Float64s(counts)
	return percentile(counts, 75) / serviceWindow
}

// cpuLedger shares the process CPU time out among the requests in
// flight: the CPU spent between two request events is split equally
// between the requests open during it. With closed-loop clients almost
// all of the process's work happens inside some request.
type cpuLedger struct {
	mu       sync.Mutex
	last     float64
	inFlight map[int64]*float64
}

func (l *cpuLedger) settle() {
	now := cpuNow()
	if n := len(l.inFlight); n > 0 {
		share := (now - l.last) / float64(n)
		for _, acc := range l.inFlight {
			*acc += share
		}
	}
	l.last = now
}

func (l *cpuLedger) start(op int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.settle()
	l.inFlight[op] = new(float64)
}

func (l *cpuLedger) end(op int64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.settle()
	cpu := *l.inFlight[op]
	delete(l.inFlight, op)
	return cpu
}

func post(client *http.Client, url, endpoint, spec string) reply {
	buf, _ := json.Marshal(map[string]string{"source": spec}) // strings always marshal
	r := reply{spec: spec, endpoint: endpoint}
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/"+endpoint, "application/json", bytes.NewReader(buf))
	if err != nil {
		r.err = err.Error()
		r.lat = time.Since(t0).Seconds()
		return r
	}
	var out struct {
		Points   int64  `json:"points"`
		Checksum string `json:"checksum"`
		Code     string `json:"code"`
		CacheHit bool   `json:"cache_hit"`
		Error    string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	r.lat = time.Since(t0).Seconds()
	r.status, r.hit, r.points, r.checksum, r.code, r.err = resp.StatusCode, out.CacheHit, out.Points, out.Checksum, out.Code != "", out.Error
	if err != nil && r.err == "" {
		r.err = err.Error()
	}
	return r
}

// verify checks every successful reply against the spec's oracle.
func (w *serviceWL) verify(ph *phase) {
	for _, r := range w.replies {
		if r.status != http.StatusOK {
			continue
		}
		o, err := w.oracle(r.spec, r.endpoint == "run")
		if err != nil {
			ph.fail("oracle for a served spec failed: %v", err)
			continue
		}
		switch {
		case (r.endpoint == "analyze" || r.endpoint == "certify") && r.points != o.points:
			ph.fail("%s: %d points, nest has %d", r.endpoint, r.points, o.points)
		case r.endpoint == "run" && r.checksum != o.checksum:
			ph.fail("run: checksum %s, sequential oracle %s", r.checksum, o.checksum)
		case r.endpoint == "codegen" && !r.code:
			ph.fail("codegen: empty program")
		}
	}
}

func (w *serviceWL) layers(tr *tracer, ph *phase, out map[string]float64) {
	// Replay every distinct spec of the traced phase so the per-layer
	// means cover the misses' whole pipeline.
	seen := map[string]bool{}
	for _, r := range w.replies {
		if !seen[r.spec] {
			seen[r.spec] = true
			if _, err := replay(r.spec, tr, int64(len(seen))); err != nil {
				ph.fail("replaying a served spec: %v", err)
			}
		}
	}
	st := tr.selfTimes()
	out["frontend.parse_ms"] = st["frontend.Parse"].MeanMS()
	out["tiling.analyze_ms"] = st["tiling.Analyze"].MeanMS()
	out["tiling.analyze_calls"] = float64(st["tiling.Analyze"].Calls)
	out["exec.new_program_ms"] = st["exec.NewProgram"].MeanMS()
	out["verify.certify_ms"] = st["verify.Certify"].MeanMS()
	out["codegen.generate_ms"] = st["codegen.Generate"].MeanMS()

	m := w.metrics
	out["serve.cache_hit_ratio"] = m.Cache.HitRate
	if n := len(w.replies); n > 0 {
		// The stretch is fixed in wall time and a fixed share of requests
		// are fresh, so totals would grow with speed: count per request.
		out["serve.compiles_per_1k"] = 1000 * float64(m.Cache.Compiles) / float64(n)
		out["serve.evictions_per_1k"] = 1000 * float64(m.Cache.Evictions) / float64(n)
	}
	out["serve.rejected"] = float64(m.Runs.QueueRejected + m.Runs.BudgetRejected)
	if n := m.Worlds.Created + m.Worlds.Reused; n > 0 {
		out["serve.world_reuse_ratio"] = float64(m.Worlds.Reused) / float64(n)
	}
	groups := map[string][]float64{}
	for _, r := range w.replies {
		if r.status != http.StatusOK {
			continue
		}
		groups[r.endpoint] = append(groups[r.endpoint], r.lat)
		if r.hit {
			groups["hit"] = append(groups["hit"], r.lat)
		} else {
			groups["miss"] = append(groups["miss"], r.lat)
		}
	}
	for k, v := range groups {
		sort.Float64s(v)
		out["serve."+k+"_p50_ms"] = percentile(v, 50) * 1e3
	}
}
