package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it. It is an
// observed value, never an interpolation, so a quoted quantile is always a
// latency some operation actually saw.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles the human report considers, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie above a quoted tail percentile.
const minBeyond = 10

// tailQuantile picks the highest percentile on tailLadder with at least
// minBeyond samples beyond its nearest rank. ok is false when even the
// median has fewer (n < 2·minBeyond), in which case the caller quotes the
// maximum and says so.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailLadder {
		rank := int(math.Ceil(q * float64(n)))
		if n-rank >= minBeyond {
			return q, true
		}
	}
	return 1, false
}

// dist is a set of raw per-operation samples (milliseconds), kept in
// arrival order.
type dist struct {
	name   string
	ms     []float64
	sorted []float64 // ms sorted, built on first use
}

func (d *dist) add(ms float64) {
	d.ms = append(d.ms, ms)
	d.sorted = nil
}

func (d *dist) q(q float64) float64 {
	if d.sorted == nil {
		d.sorted = append([]float64(nil), d.ms...)
		sort.Float64s(d.sorted)
	}
	return quantile(d.sorted, q)
}

// Windowed tail quantiles: the samples are cut, in arrival order, into at
// most maxWindows consecutive windows of at least windowMin samples.
const (
	windowMin  = 1000 // p99 of a window keeps ten samples beyond it
	maxWindows = 10
)

// windowedQ returns the median over the windows of each window's
// q-quantile. A stall of the shared host inflates the tail of the one or
// two windows it falls in, not the median window, so the figure repeats
// from run to run where a whole-run p99 would not.
func (d *dist) windowedQ(q float64) float64 {
	n := len(d.ms)
	k := min(maxWindows, max(1, n/windowMin))
	qs := make([]float64, k)
	for i := range qs {
		w := append([]float64(nil), d.ms[i*n/k:(i+1)*n/k]...)
		sort.Float64s(w)
		qs[i] = quantile(w, q)
	}
	return median(qs)
}

// summary renders the distribution the way every report line quotes a
// timing: median, the highest percentile with minBeyond samples beyond
// it, and the sample count.
func (d *dist) summary() string {
	n := len(d.ms)
	if n == 0 {
		return fmt.Sprintf("%s: no samples", d.name)
	}
	q, ok := tailQuantile(n)
	tail := fmt.Sprintf("p%g=%.4g ms", 100*q, d.q(q))
	if !ok {
		tail = fmt.Sprintf("max=%.4g ms (fewer than %d samples beyond p50)", d.q(1), minBeyond)
	}
	return fmt.Sprintf("%s: p50=%.4g ms p99=%.4g ms %s windowed-p99=%.4g ms n=%d",
		d.name, d.q(0.5), d.q(0.99), tail, d.windowedQ(0.99), n)
}

// procStats is a point-in-time reading of the process's own resource use.
type procStats struct {
	wall   time.Time
	cpu    time.Duration // user + system
	maxRSS int64         // bytes, peak since process start
	gcCPU  float64       // seconds, runtime/metrics GC CPU estimate
	allCPU float64       // seconds, runtime/metrics total CPU estimate
	allocs uint64        // cumulative heap bytes allocated
	heap   uint64        // live heap object bytes
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return procStats{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
		gcCPU:  runtimeSamples[0].Value.Float64(),
		allCPU: runtimeSamples[1].Value.Float64(),
		allocs: runtimeSamples[2].Value.Uint64(),
		heap:   runtimeSamples[3].Value.Uint64(),
	}
}

// phase is the difference between two procStats readings.
type phase struct{ from, to procStats }

func (p phase) seconds() float64 { return p.to.wall.Sub(p.from.wall).Seconds() }

func (p phase) cpuSeconds() float64 { return (p.to.cpu - p.from.cpu).Seconds() }

func (p phase) gcCPUFrac() float64 {
	all := p.to.allCPU - p.from.allCPU
	if all <= 0 {
		return 0
	}
	return (p.to.gcCPU - p.from.gcCPU) / all
}

func (p phase) allocBytes() float64 { return float64(p.to.allocs - p.from.allocs) }

// median returns the median of xs (the mean of the middle pair for even
// counts); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// rssSampler samples the process's resident set size every 100 ms over a
// timed phase. The median sample is the phase's typical footprint: unlike
// the peak, it does not hinge on where the last garbage collection fell.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := residentMB(); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-tick.C:
			case <-s.stop:
				s.done <- mb
				return
			}
		}
	}()
	return s
}

// medianMB stops the sampler and returns the median sample, or peak when
// no sample could be read.
func (s *rssSampler) medianMB(peak float64) float64 {
	close(s.stop)
	mb := <-s.done
	if len(mb) == 0 {
		return peak
	}
	return median(mb)
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", raw)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
