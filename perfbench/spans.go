package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around a public function of the package under test. Spans of
// one benchmark operation share Op; Parent links a call to the span that
// caused it (0 = a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"` // calls covered when one span wraps a loop
	Self   int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end do nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span awaiting end.
type open struct {
	id, parent, op uint64
	name           string
	start          int64
}

// ID returns the span's identifier for use as a child's parent (0 when
// untraced).
func (o open) ID() uint64 { return o.id }

func (t *tracer) begin(name string, parent, op uint64) open {
	if t == nil {
		return open{}
	}
	return open{id: t.ids.Add(1), parent: parent, op: op, name: name, start: int64(time.Since(t.t0))}
}

// end closes o; calls > 1 records that the span wraps a loop of that many
// calls to the named function.
func (t *tracer) end(o open, calls int) {
	if t == nil {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name, Start: o.start, End: int64(time.Since(t.t0))}
	if calls > 1 {
		s.Calls = calls
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its wall duration. It is the
// one timing helper the probes use, so a probe measures the same interval
// whether or not tracing is on.
func (t *tracer) timed(name string, parent uint64, calls int, fn func()) time.Duration {
	o := t.begin(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(o, calls)
	return d
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes fills each span's Self: its duration minus the part of its
// interval covered by the union of its children's intervals (children
// may overlap when they ran in parallel, and are clipped to the parent).
func selfTimes(spans []span) {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns the length of [lo, hi] covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	flush()
	return total
}

// layerTotal aggregates spans by name.
type layerTotal struct {
	Name  string
	Spans int
	Calls int
	Total int64
	Self  int64
}

func aggregate(spans []span) []layerTotal {
	by := map[string]*layerTotal{}
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTotal{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Spans++
		lt.Calls += max(s.Calls, 1)
		lt.Total += s.dur()
		lt.Self += s.Self
	}
	out := make([]layerTotal, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// finish computes self times, writes every span as one JSON line to path,
// and prints the per-layer self-time table to w.
func (t *tracer) finish(path string, w io.Writer) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	selfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span output: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)
	fmt.Fprintf(w, "%-32s %8s %10s %12s %12s\n", "layer", "spans", "calls", "total_ms", "self_ms")
	for _, lt := range aggregate(spans) {
		fmt.Fprintf(w, "%-32s %8d %10d %12.3f %12.3f\n", lt.Name, lt.Spans, lt.Calls,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
	return nil
}

// spanCost measures what one begin/end pair costs where it runs, so the
// traced run can report its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0, uint64(i)), 1)
	}
	return time.Since(start) / n
}

// overheadPct estimates the tracing overhead of a traced phase: spans
// recorded times the calibrated cost of one span, as a share of the
// phase's wall time.
func overheadPct(tr *tracer, ph phase) float64 {
	cost := spanCost()
	fmt.Printf("tracing: %d spans at %v each\n", tr.count(), cost)
	return 100 * float64(tr.count()) * cost.Seconds() / ph.seconds()
}
