package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Spans of one job or session share a trace id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs measure with tracing off.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
	traces int64  // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id for one job or session.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(name string, trace, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span start returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name         string
	Count        int
	Total, Self  time.Duration
	MedianSingle time.Duration
}

// summarize groups spans by name. A span's self time is its duration minus
// the part of it its child spans cover.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Count++
		sum.Total += d
		sum.Self += d - covered(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	out := make([]spanSummary, 0, len(by))
	for name, s := range by {
		s.MedianSingle = time.Duration(median(durs[name]))
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// printSummary writes the per-span table of the traced run.
func printSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "%-28s %7s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_ms")
	for _, s := range sums {
		fmt.Fprintf(w, "%-28s %7d %12.3f %12.3f %12.4f\n", s.Name, s.Count, ms(s.Total), ms(s.Self), ms(s.MedianSingle))
	}
}
