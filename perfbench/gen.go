package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// opKind classifies benchmark operations.
type opKind uint8

const (
	opJoin opKind = iota
	opLeave
	opUpdate
	opRead // point read of one tenant's row
)

func (k opKind) mutation() bool { return k <= opUpdate }

// Latency limits an operation must meet to count as ok.
const (
	mutationLimit = 100 * time.Millisecond // ten default epoch windows
	readLimit     = 25 * time.Millisecond
)

func (k opKind) limit() time.Duration {
	if k.mutation() {
		return mutationLimit
	}
	return readLimit
}

// planned is one scheduled operation of an open loop.
type planned struct {
	due  time.Duration // since the loop's start
	kind opKind
}

// mixWeight is one entry of an operation mix.
type mixWeight struct {
	kind   opKind
	weight int
}

// plan draws Poisson arrivals at rate per second over seconds, each
// operation's kind drawn from mix. It is a pure function of its inputs.
func plan(rng *rand.Rand, rate, seconds float64, mix []mixWeight) []planned {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	var out []planned
	horizon := time.Duration(seconds * float64(time.Second))
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= horizon {
			return out
		}
		pick := rng.Intn(total)
		k := mix[0].kind
		for _, m := range mix {
			if pick < m.weight {
				k = m.kind
				break
			}
			pick -= m.weight
		}
		out = append(out, planned{due: t, kind: k})
	}
}

// opRecord is one operation's outcome. Times are offsets from the loop's
// start: due is when the schedule wanted it sent, start when the
// scheduler dispatched it, done when it was acknowledged.
type opRecord struct {
	kind             opKind
	name             string
	elast            []float64 // declared elasticities of a join or update
	due, start, done time.Duration
	failed           bool
}

func (r *opRecord) latency() time.Duration { return r.done - r.due }

func (r *opRecord) late() time.Duration { return r.start - r.due }

// ok reports whether the operation succeeded within its limit.
func (r *opRecord) ok() bool { return !r.failed && r.latency() <= r.kind.limit() }

// dispatchFunc is called on the scheduling goroutine for operation i. It
// fills rec's target and returns the call to run concurrently, which
// reports whether the operation failed.
type dispatchFunc func(i int, rec *opRecord) func() (failed bool)

// openLoop sends the planned operations on schedule from one scheduling
// goroutine, with at most maxInflight outstanding: when the bound is hit
// the scheduler waits and falls behind schedule, which each record's
// lateness shows. It returns once every operation has completed.
func openLoop(t0 time.Time, ops []planned, maxInflight int, dispatch dispatchFunc) []opRecord {
	recs := make([]opRecord, len(ops))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i, p := range ops {
		if wait := p.due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		rec := &recs[i]
		rec.kind, rec.due, rec.start = p.kind, p.due, time.Since(t0)
		call := dispatch(i, rec)
		if call == nil {
			rec.failed, rec.done = true, rec.start
			<-sem
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.failed = call()
			rec.done = time.Since(t0)
			<-sem
		}()
	}
	wg.Wait()
	return recs
}

// loopStats summarizes an open loop's records.
type loopStats struct {
	mut, read, late dist
	ok, failed      int64
}

// summarize files each record's latency under its class, in due order.
func summarize(recs []opRecord) *loopStats {
	recs = append([]opRecord(nil), recs...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].due < recs[j].due })
	s := &loopStats{}
	s.mut.name, s.read.name, s.late.name = "mutation", "point read", "generator lateness"
	for i := range recs {
		r := &recs[i]
		ms := float64(r.latency()) / 1e6
		if r.kind.mutation() {
			s.mut.add(ms)
		} else {
			s.read.add(ms)
		}
		s.late.add(float64(r.late()) / 1e6)
		if r.failed {
			s.failed++
		}
		if r.ok() {
			s.ok++
		}
	}
	return s
}
