// Package cache implements the set-associative cache models of the
// reproduction's platform simulator (Table 1 of the REF paper): a 32 KB
// 4-way L1 and a last-level cache whose capacity sweeps 128 KB–2 MB. Caches
// use true-LRU replacement and 64-byte blocks. The LLC additionally
// supports way partitioning, the enforcement mechanism used when multiple
// agents share the cache under an allocation.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrBadConfig reports invalid cache geometry.
var ErrBadConfig = errors.New("cache: bad config")

// Config describes cache geometry.
type Config struct {
	// SizeBytes is total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// BlockBytes is the line size.
	BlockBytes int
	// HitLatency is the access latency in cycles.
	HitLatency int
}

// Validate checks the geometry: power-of-two sets, positive parameters.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0 || c.HitLatency < 0 {
		return fmt.Errorf("%w: %+v", ErrBadConfig, c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("%w: block size %d not a power of two", ErrBadConfig, c.BlockBytes)
	}
	if c.SizeBytes%(c.Ways*c.BlockBytes) != 0 {
		return fmt.Errorf("%w: size %d not divisible by ways×block %d", ErrBadConfig, c.SizeBytes, c.Ways*c.BlockBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("%w: %d sets not a power of two", ErrBadConfig, sets)
	}
	return nil
}

// line is one cache line's metadata.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a recency counter; larger = more recent.
	lru uint64
}

// Stats accumulates cache activity.
type Stats struct {
	Hits, Misses uint64
	Evictions    uint64
	Writebacks   uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint
	setMask  uint64
	lines    []line // sets × ways, row-major
	clock    uint64
	stats    Stats
}

// New builds a cache from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		setMask:  uint64(sets - 1),
		lines:    make([]line, sets*cfg.Ways),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// AccessResult reports what one access did.
type AccessResult struct {
	// Hit is true when the block was present.
	Hit bool
	// Writeback is true when a dirty block was evicted.
	Writeback bool
	// EvictedAddr is the block address written back (valid only when
	// Writeback is true).
	EvictedAddr uint64
}

// Access looks up addr, filling on miss, and returns what happened.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	set := int((addr >> c.setShift) & c.setMask)
	tag := addr >> c.setShift >> uint(bits.TrailingZeros(uint(c.sets)))
	base := set * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	// Lookup.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	c.stats.Misses++
	// Choose victim: invalid first, then LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	res := AccessResult{}
	if ways[victim].valid {
		c.stats.Evictions++
		if ways[victim].dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.EvictedAddr = c.reconstruct(ways[victim].tag, set)
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// Warm fills a never-accessed cache as if Access(a, false) had been called
// for each a of addrs in order and the statistics then cleared: every set
// holds its most recently used distinct blocks, clean, each stamped with
// the position + 1 of its last use, and the clock reads len(addrs). The
// order of lines within a set may differ from what the Access loop leaves,
// which nothing observes: lookups match tags, and a victim is the first
// invalid line or the unique least recent one. Warm scans addrs backwards
// and stops once every line is filled, so it costs O(min(len(addrs),
// lines)) rather than an access per address. It panics if the cache has
// been accessed or warmed before.
func (c *Cache) Warm(addrs []uint64) {
	if c.clock != 0 {
		panic("cache: Warm on a used cache")
	}
	ways := c.cfg.Ways
	setBits := uint(bits.TrailingZeros(uint(c.sets)))
	// filled[s] counts set s's lines, which occupy its leading ways.
	filled := make([]int, c.sets)
	free := len(c.lines)
	for k := len(addrs) - 1; k >= 0 && free > 0; k-- {
		set := int((addrs[k] >> c.setShift) & c.setMask)
		if filled[set] == ways {
			continue
		}
		tag := addrs[k] >> c.setShift >> setBits
		lines := c.lines[set*ways : set*ways+filled[set]]
		seen := false
		for i := range lines {
			if lines[i].tag == tag {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		c.lines[set*ways+filled[set]] = line{tag: tag, valid: true, lru: uint64(k + 1)}
		filled[set]++
		free--
	}
	c.clock = uint64(len(addrs))
}

// Contains reports whether addr's block is resident (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	set := int((addr >> c.setShift) & c.setMask)
	tag := addr >> c.setShift >> uint(bits.TrailingZeros(uint(c.sets)))
	base := set * c.cfg.Ways
	for _, l := range c.lines[base : base+c.cfg.Ways] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and returns the number of dirty lines
// discarded.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			dirty++
		}
		c.lines[i] = line{}
	}
	return dirty
}

// reconstruct rebuilds a block address from tag and set index.
func (c *Cache) reconstruct(tag uint64, set int) uint64 {
	setBits := uint(bits.TrailingZeros(uint(c.sets)))
	return ((tag << setBits) | uint64(set)) << c.setShift
}
