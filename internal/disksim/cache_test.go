package disksim

import (
	"math/rand"
	"testing"
	"time"
)

// refCache is the segmented read cache as first written: a plain two-branch
// containment scan for lookup and an unconditional compaction for
// invalidate. It is kept here as the oracle the cache's rewritten scans
// must match operation for operation.
type refCache struct {
	segments   []segment
	segSectors int64
}

func (c *refCache) enabled() bool { return c.segSectors > 0 && cap(c.segments) > 0 }

func (c *refCache) lookup(lbn int64, n int, now time.Duration) bool {
	if !c.enabled() {
		return false
	}
	end := lbn + int64(n)
	for i := range c.segments {
		if lbn >= c.segments[i].start && end <= c.segments[i].end {
			c.segments[i].lastUse = now
			return true
		}
	}
	return false
}

func (c *refCache) fill(lbn int64, n int, total int64, now time.Duration) {
	if !c.enabled() {
		return
	}
	end := lbn + c.segSectors
	if end < lbn+int64(n) {
		end = lbn + int64(n)
	}
	if end > total {
		end = total
	}
	s := segment{start: lbn, end: end, lastUse: now}
	if len(c.segments) < cap(c.segments) {
		c.segments = append(c.segments, s)
		return
	}
	lru := 0
	for i := 1; i < len(c.segments); i++ {
		if c.segments[i].lastUse < c.segments[lru].lastUse {
			lru = i
		}
	}
	c.segments[lru] = s
}

func (c *refCache) invalidate(lbn int64, n int) {
	if !c.enabled() {
		return
	}
	end := lbn + int64(n)
	out := c.segments[:0]
	for _, s := range c.segments {
		if s.end <= lbn || s.start >= end {
			out = append(out, s)
		}
	}
	c.segments = out
}

// TestCacheMatchesReference drives the cache and the reference through the
// same seeded sequences of reads (lookup, then fill on a miss, as Serve
// does), bare lookups and writes, and after every operation requires the
// same hit result and the same segment slice: order, bounds, lastUse and
// capacity. The sequences are built to reach the cases the scans must get
// right: overlapping segments (the hit must be the first match, since its
// lastUse drives LRU eviction), lookups of a segment's exact range and of
// one sector past either end, one-sector segments at the disk's last
// sector, oversized requests, and a full cache evicting on ties of lastUse.
func TestCacheMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		bytes    int64
		segments int
		total    int64
	}{
		{"default-geometry", DefaultCacheBytes, DefaultCacheSegments, 1 << 16},
		{"one-sector-segments", 16 * 512, 16, 512},
		{"few-wide-segments", 4 * 64 * 512, 4, 2000},
		{"single-segment", 8 * 512, 1, 300},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			c := newCache(tc.bytes, tc.segments)
			ref := &refCache{
				segments:   make([]segment, 0, tc.segments),
				segSectors: tc.bytes / int64(tc.segments) / 512,
			}
			rng := rand.New(rand.NewSource(seed))
			var now time.Duration
			for op := 0; op < 20000; op++ {
				if rng.Intn(4) > 0 { // repeated instants make LRU ties
					now += time.Duration(rng.Intn(3))
				}
				lbn, n := cacheOpRange(rng, ref, tc.total)
				var got, want bool
				switch k := rng.Intn(10); {
				case k < 5: // a read, as Serve issues it
					got, want = c.lookup(lbn, n, now), ref.lookup(lbn, n, now)
					if !got {
						c.fill(lbn, n, tc.total, now+1)
					}
					if !want {
						ref.fill(lbn, n, tc.total, now+1)
					}
				case k < 7:
					got, want = c.lookup(lbn, n, now), ref.lookup(lbn, n, now)
				default:
					c.invalidate(lbn, n)
					ref.invalidate(lbn, n)
				}
				if got != want {
					t.Fatalf("%s seed %d op %d [%d,+%d): hit %v, reference %v",
						tc.name, seed, op, lbn, n, got, want)
				}
				if !sameSegments(c.segments, ref.segments) {
					t.Fatalf("%s seed %d op %d [%d,+%d): segments\n got  %v (cap %d)\n want %v (cap %d)",
						tc.name, seed, op, lbn, n, c.segments, cap(c.segments),
						ref.segments, cap(ref.segments))
				}
			}
		}
	}
}

// cacheOpRange picks an operation's range: half the time one derived from a
// cached segment (its exact range, a sector beyond either end, its last
// sector), otherwise a random range that may run to the disk's last sector
// or exceed a segment.
func cacheOpRange(rng *rand.Rand, ref *refCache, total int64) (int64, int) {
	if len(ref.segments) > 0 && rng.Intn(2) == 0 {
		s := ref.segments[rng.Intn(len(ref.segments))]
		lbn, end := s.start, s.end
		switch rng.Intn(5) {
		case 1:
			lbn--
		case 2:
			end++
		case 3:
			lbn = end - 1
		case 4:
			lbn++
		}
		return clampRange(lbn, end, total)
	}
	var n int64
	switch rng.Intn(4) {
	case 0:
		n = 1
	case 1:
		n = 2*ref.segSectors + int64(rng.Intn(8)) // oversized
	default:
		n = 1 + int64(rng.Intn(int(ref.segSectors)+1))
	}
	lbn := int64(rng.Intn(int(total)))
	if rng.Intn(8) == 0 {
		lbn = total - n // ends at the disk's last sector
	}
	return clampRange(lbn, lbn+n, total)
}

// clampRange keeps [lbn, end) a valid, non-empty request inside [0, total).
func clampRange(lbn, end, total int64) (int64, int) {
	if end > total {
		end = total
	}
	if lbn < 0 {
		lbn = 0
	}
	if lbn >= end {
		lbn = end - 1
	}
	return lbn, int(end - lbn)
}

func sameSegments(a, b []segment) bool {
	if len(a) != len(b) || cap(a) != cap(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
