package main

import (
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.995, 100}, {1, 100},
	} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want the sample", got)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{10000, 0.999, true}, // rank 9990, 10 beyond
		{9999, 0.99, true},   // p99.9 has only 9 beyond
		{1000, 0.99, true},
		{999, 0.9, true},
		{20, 0.5, true},
		{19, 1, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.wantOK {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.wantOK)
		}
	}
}

func TestSummarizeCountsLatenessFromDue(t *testing.T) {
	ms := time.Millisecond
	recs := []opRecord{
		{kind: opUpdate, due: 0, start: 2 * ms, done: 50 * ms},       // ok, 2 ms late
		{kind: opJoin, due: 10 * ms, start: 10 * ms, done: 111 * ms}, // over the 100 ms limit
		{kind: opRead, due: 20 * ms, start: 30 * ms, done: 31 * ms},  // ok, 10 ms late
		{kind: opRead, due: 40 * ms, start: 40 * ms, done: 41 * ms, failed: true},
		{kind: opRead, due: 50 * ms, start: 60 * ms, done: 80 * ms}, // 30 ms from due: over 25 ms
	}
	st := summarize(recs)
	if st.ok != 2 || st.failed != 1 {
		t.Errorf("ok=%d failed=%d, want 2 and 1", st.ok, st.failed)
	}
	if got := st.mut.q(1); got != 101 {
		t.Errorf("slowest mutation latency %v ms, want 101 (done minus due)", got)
	}
	if got := st.read.q(0.5); got != 11 {
		t.Errorf("median point read %v ms, want 11, the nearest-rank median of {1, 11, 30}", got)
	}
	if n := len(st.late.ms); n != 5 {
		t.Errorf("lateness has %d samples, want 5", n)
	}
	if got := st.late.q(1); got != 10 {
		t.Errorf("max lateness %v ms, want 10", got)
	}
}

func TestOpenLoopLatenessWhenSaturated(t *testing.T) {
	const hold = 30 * time.Millisecond
	ops := []planned{{due: 0, kind: opUpdate}, {due: time.Millisecond, kind: opUpdate}}
	recs := openLoop(time.Now(), ops, 1, func(i int, rec *opRecord) func() bool {
		return func() bool { time.Sleep(hold); return false }
	})
	second := recs[1]
	if second.late() < hold-5*time.Millisecond {
		t.Errorf("second op %v late; with one slot it must wait out the first op's %v", second.late(), hold)
	}
	if second.latency() < second.late()+hold {
		t.Errorf("second op latency %v must include its lateness %v and its own %v", second.latency(), second.late(), hold)
	}
}

func TestOpenLoopSkippedOpFails(t *testing.T) {
	recs := openLoop(time.Now(), []planned{{kind: opLeave}}, 4, func(int, *opRecord) func() bool { return nil })
	if !recs[0].failed || recs[0].ok() {
		t.Errorf("an op the generator could not target must count as failed: %+v", recs[0])
	}
}

func TestLivePoolLeaveNeverTakesBusyTenant(t *testing.T) {
	p := newLivePool(2)
	rng := rand.New(rand.NewSource(1))
	busy, _ := p.pick(rng, false)
	for i := 0; i < 50; i++ {
		k, ok := p.pick(rng, true)
		if !ok {
			break
		}
		if k == busy {
			t.Fatalf("leave picked tenant %d with an outstanding op", k)
		}
	}
	if p.size() != 1 {
		t.Fatalf("pool size %d, want only the busy tenant left", p.size())
	}
	p.done(busy)
	if k, ok := p.pick(rng, true); !ok || k != busy {
		t.Errorf("after done, leave = %d, %v; want %d", k, ok, busy)
	}
}

func TestPlanIsSeeded(t *testing.T) {
	a := plan(rand.New(rand.NewSource(9)), 1000, 1, trafficMix)
	b := plan(rand.New(rand.NewSource(9)), 1000, 1, trafficMix)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("plan lengths %d and %d, want equal and near 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan differs at %d", i)
		}
	}
}

func TestGoldenRowsCompare(t *testing.T) {
	out := "Figure 13: weighted system throughput\nWD1   (4C)  A=1.0\nWD2   (4M)  A=2.0\n[fig13 completed in 1.2s]\n"
	rows := tableRows([]byte(out))
	if len(rows) != 2 {
		t.Fatalf("tableRows kept %d lines, want the 2 rows: %q", len(rows), rows)
	}
	if m, p := compareRows("fig13", rows, rows); m != 2 || len(p) != 0 {
		t.Errorf("identical rows: matched %d, problems %v", m, p)
	}
	changed := []string{rows[0], "WD2   (4M)  A=2.1"}
	if m, p := compareRows("fig13", changed, rows); m != 1 || len(p) != 1 || !strings.Contains(p[0], "row 2") {
		t.Errorf("one changed row: matched %d, problems %v", m, p)
	}
	if m, p := compareRows("fig13", rows[:1], rows); m != 1 || len(p) != 1 {
		t.Errorf("missing row: matched %d, problems %v", m, p)
	}
}

func TestCommittedGoldensHaveFiveRows(t *testing.T) {
	for _, name := range []string{"fig13", "fig14"} {
		raw, err := os.ReadFile("../" + goldenDir + "/" + name + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		if rows := tableRows(raw); len(rows) != 5 || !strings.HasPrefix(rows[0], "WD") {
			t.Errorf("%s golden: %d rows %q, want five WD rows", name, len(rows), rows)
		}
	}
}

func TestCoveredUnionsAndClipsChildren(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{10, 30}}, 20},
		{[][2]int64{{20, 50}, {10, 30}, {60, 70}}, 50}, // overlapping parallel children count once
		{[][2]int64{{-20, 10}, {90, 130}}, 20},         // clipped to the parent's [0, 100]
		{[][2]int64{{10, 20}, {10, 20}}, 10},
		{[][2]int64{{120, 130}}, 0},
	} {
		if got := covered(0, 100, c.ivs); got != c.want {
			t.Errorf("covered(0,100,%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 25},
	}
	selfTimes(spans)
	want := map[string]int64{"root": 50, "a": 20, "b": 30, "a.child": 10}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s self = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	agg := aggregate(spans)
	if agg[0].Name != "root" || agg[0].Self != 50 {
		t.Errorf("aggregate orders by self time: %+v", agg)
	}
}

func TestUntracedTracerIsInert(t *testing.T) {
	var tr *tracer
	o := tr.begin("x", 0, 1)
	tr.end(o, 1)
	if o.ID() != 0 || tr.count() != 0 {
		t.Errorf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 0)
	tr.timed("child", root.ID(), 3, func() {})
	tr.end(root, 1)
	if tr.count() != 2 || tr.spans[0].Parent != root.ID() || tr.spans[0].Calls != 3 {
		t.Errorf("traced spans %+v", tr.spans)
	}
}

func TestWindowedQuantileIgnoresOneStalledWindow(t *testing.T) {
	var d dist
	for w := 0; w < 10; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if w == 4 {
				v = 100 // a stall covering one window
			}
			d.add(v)
		}
	}
	if got := d.q(0.99); got != 100 {
		t.Errorf("whole-run p99 = %v, want the stall's 100", got)
	}
	if got := d.windowedQ(0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	var few dist
	for _, v := range []float64{3, 1, 2} {
		few.add(v)
	}
	if got := few.windowedQ(0.99); got != 3 {
		t.Errorf("windowed p99 of 3 samples = %v, want their maximum", got)
	}
}
