package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one operation share
// Req; Parent is the index of the enclosing span, or -1.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
}

// tracer keeps the traced run's spans in memory until the run ends. A nil
// *tracer records nothing, which is how untraced runs use the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	req   int64
	// overheadMs is the traced minus the untraced mean operation time,
	// measured by the workload within the same process.
	overheadMs float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq returns a fresh request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// begin opens a span and returns its handle (-1 when not tracing).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records an already-finished span (used for server-side spans read
// back from the server's own traces).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// at converts a wall-clock instant into the tracer's time base.
func (t *tracer) at(w time.Time) int64 { return w.Sub(t.t0).Nanoseconds() }

// call runs fn inside a span.
func (t *tracer) call(name string, parent int, req int64, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name, every span's self time in ms: its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		if s.EndNs < 0 {
			continue
		}
		covered := coverage(t.spans, children[i], s.StartNs, s.EndNs)
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs-covered)/1e6)
	}
	return out
}

// durations returns, per span name, every span's total duration in ms.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if s.EndNs >= 0 {
			out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// coverage is the length of the union of the child intervals, clipped to
// [lo, hi].
func coverage(all []span, kids []int, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(all[k].StartNs, lo), min(all[k].EndNs, hi)
		if all[k].EndNs >= 0 && e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curE = -1
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// layerSummary is one span name's figures in the per-layer summary file.
type layerSummary struct {
	Calls      int     `json:"calls"`
	SelfP50Ms  float64 `json:"self_p50_ms"`
	SelfSumMs  float64 `json:"self_sum_ms"`
	TotalP50Ms float64 `json:"total_p50_ms"`
}

// write saves the spans and the per-layer summary of a traced run.
func (t *tracer) write(cfg config, metrics map[string]metric) error {
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	spans, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", spans, 0o644); err != nil {
		return err
	}
	self, total := t.selfTimes(), t.durations()
	layers := make(map[string]layerSummary, len(self))
	for name, xs := range self {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		layers[name] = layerSummary{Calls: len(xs), SelfP50Ms: median(xs), SelfSumMs: sum, TotalP50Ms: median(total[name])}
	}
	summary, err := json.MarshalIndent(map[string]any{
		"workload":            cfg.workload,
		"seed":                cfg.seed,
		"spans":               len(t.spans),
		"tracing_overhead_ms": t.overheadMs,
		"layers":              layers,
		"metrics":             metrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".layers.json", summary, 0o644)
}
