package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Op groups the spans of one
// workload operation (one tiling, one program run, one request).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 = root
	Op     int64   `json:"op"`
	Name   string  `json:"name"` // "<layer>.<Func>"
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so the untraced path pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: now.Sub(t.epoch).Seconds()})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.epoch).Seconds()
	t.mu.Unlock()
}

// call wraps f in a span.
func (t *tracer) call(name string, op, parent int64, f func()) {
	id := t.begin(name, op, parent)
	f()
	t.end(id)
}

// selfStats is the self time (span duration minus the part its child
// spans cover) and call count of one span name.
type selfStats struct {
	Calls int64
	Self  float64 // seconds
}

// MeanMS is the mean self time per call in milliseconds.
func (s selfStats) MeanMS() float64 {
	if s.Calls == 0 {
		return 0
	}
	return s.Self / float64(s.Calls) * 1e3
}

// selfTimes aggregates self time by span name.
func (t *tracer) selfTimes() map[string]selfStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfStats{}
	for _, s := range t.spans {
		covered := 0.0
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur0, cur1 := -1.0, -1.0
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > cur1 {
				covered += cur1 - cur0
				cur0, cur1 = a, b
			} else if b > cur1 {
				cur1 = b
			}
		}
		covered += cur1 - cur0
		st := out[s.Name]
		st.Calls++
		st.Self += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}

// layerSelf sums self time by layer (the span name's prefix).
func layerSelf(byName map[string]selfStats) map[string]float64 {
	out := map[string]float64{}
	for name, st := range byName {
		out[span{Name: name}.layer()] += st.Self
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
