package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are nanoseconds since the tracer started; Parent is 0 for
// a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workload code calls it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent and passes fn the span
// id, so nested calls can hang their spans under it.
func (t *tracer) do(name string, parent int64, fn func(id int64)) {
	id := t.begin(name, parent)
	fn(id)
	t.end(id)
}

// finish computes every span's self time — its duration minus the union of
// its children's intervals, which may overlap when children run
// concurrently — and returns the spans in id order.
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return withSelfTimes(t.spans)
}

func withSelfTimes(in []span) []span {
	out := append([]span(nil), in...)
	children := make(map[int64][][2]int64)
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range out {
		s := &out[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				covered += curE - curS
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		covered += curE - curS
		s.Self = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the per-name roll-up printed after a traced run.
type spanSummary struct {
	name        string
	count       int
	total, self int64
	durs        []float64 // milliseconds
}

func summarize(spans []span) []spanSummary {
	by := map[string]*spanSummary{}
	for _, s := range spans {
		sm := by[s.Name]
		if sm == nil {
			sm = &spanSummary{name: s.Name}
			by[s.Name] = sm
		}
		sm.count++
		sm.total += s.End - s.Start
		sm.self += s.Self
		sm.durs = append(sm.durs, float64(s.End-s.Start)/1e6)
	}
	out := make([]spanSummary, 0, len(by))
	for _, sm := range by {
		out = append(out, *sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// medianSpanMS is the median duration in milliseconds of the spans named
// name; 0 when there are none.
func medianSpanMS(spans []span, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ds)
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func printSpanSummary(spans []span) {
	fmt.Printf("%-28s %7s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, sm := range summarize(spans) {
		fmt.Printf("%-28s %7d %12.3f %12.3f %10.4f\n", sm.name, sm.count, float64(sm.total)/1e6, float64(sm.self)/1e6, median(sm.durs))
	}
}
