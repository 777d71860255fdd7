package trace

// vacant marks a timeline slot whose block has since been touched again or
// evicted. It is not block aligned, so no generated address can equal it.
const vacant = ^uint64(0)

// recency is a fixed-size LRU stack with O(log W) access at any depth: the
// Bennett–Kruskal stack-distance technique. Every block carries the
// timestamp of its last access, so the stack, most recent first, is the
// blocks in descending timestamp order: depth d is the block with the
// (W−1−d)-th smallest live timestamp. A Fenwick tree counting live
// timestamps finds it in O(log W).
//
// Timestamps index a timeline of about 1.5W slots. When the timeline
// fills, compact packs the live blocks into its first slots in timestamp
// order and rebuilds the tree. That O(W) pass runs at most once per W/2
// accesses, so it costs amortised O(1) per access.
type recency struct {
	// slots[t] is the block stamped with timestamp t, or vacant. Slots
	// from now on are free and hold stale values until push fills them.
	slots []uint64
	// live is a 1-indexed Fenwick tree over slots: the sum of
	// live[1..t+1] counts the occupied slots in [0, t].
	live []int32
	// top is the highest power of two ≤ len(slots), where select starts.
	top int
	// size is the number of blocks on the stack (the working set W).
	size int
	// now is the next timestamp to issue. tail is at or below the coldest
	// occupied timestamp.
	now, tail int
}

// newRecency builds a stack of the n blocks at addresses 0, BlockSize, …,
// with block 0 the most recent.
func newRecency(n int) *recency {
	m := n + n/2 + 1
	r := &recency{
		slots: make([]uint64, m),
		live:  make([]int32, m+1),
		top:   1,
		size:  n,
		now:   n,
	}
	for r.top*2 <= m {
		r.top *= 2
	}
	for t := 0; t < n; t++ {
		r.slots[t] = uint64(n-1-t) * BlockSize
	}
	r.rebuild()
	return r
}

// touch returns the block at depth d (0 = most recent) and moves it to the
// top of the stack.
func (r *recency) touch(d int) uint64 {
	t := r.selectLive(r.size - 1 - d)
	a := r.slots[t]
	r.vacate(t)
	r.push(a)
	return a
}

// stream evicts the coldest block and pushes a onto the top of the stack.
func (r *recency) stream(a uint64) {
	for r.slots[r.tail] == vacant {
		r.tail++
	}
	r.vacate(r.tail)
	r.push(a)
}

// coldestFirst returns the stack's blocks, deepest first.
func (r *recency) coldestFirst() []uint64 {
	out := make([]uint64, 0, r.size)
	for _, a := range r.slots[:r.now] {
		if a != vacant {
			out = append(out, a)
		}
	}
	return out
}

// selectLive returns the timestamp of the k-th (0-based) oldest block.
func (r *recency) selectLive(k int) int {
	pos := 0
	for step := r.top; step > 0; step >>= 1 {
		if next := pos + step; next < len(r.live) && int(r.live[next]) <= k {
			pos = next
			k -= int(r.live[next])
		}
	}
	return pos
}

func (r *recency) vacate(t int) {
	r.slots[t] = vacant
	for i := t + 1; i < len(r.live); i += i & -i {
		r.live[i]--
	}
}

// push stamps a block that is not on the stack with the next timestamp,
// putting it at the top.
func (r *recency) push(a uint64) {
	if r.now == len(r.slots) {
		r.compact()
	}
	r.slots[r.now] = a
	for i := r.now + 1; i < len(r.live); i += i & -i {
		r.live[i]++
	}
	r.now++
}

// compact moves the live blocks to the front of the timeline, keeping
// their order, and frees the rest for new timestamps.
func (r *recency) compact() {
	k := 0
	for _, a := range r.slots[:r.now] {
		if a != vacant {
			r.slots[k] = a
			k++
		}
	}
	r.now, r.tail = k, 0
	r.rebuild()
}

// rebuild sets the Fenwick tree to slots [0, now) occupied and the rest
// free, in O(len(slots)).
func (r *recency) rebuild() {
	// live[i] counts the occupied indices in (i − lowbit(i), i]. With
	// indices [1, now] occupied, that is all of them up to now and the
	// part of the range at or below now beyond it.
	for i := 1; i <= r.now; i++ {
		r.live[i] = int32(i & -i)
	}
	for i := r.now + 1; i < len(r.live); i++ {
		r.live[i] = int32(max(0, r.now-(i-i&-i)))
	}
}
