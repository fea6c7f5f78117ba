package disksim

import "time"

// segment is one contiguous cached LBN range [start, end).
type segment struct {
	start, end int64
	lastUse    time.Duration
}

// cache is the drive's segmented read cache. Each segment caches one
// sequential stream; a read miss repopulates the least-recently-used segment
// with the request plus read-ahead up to the segment size, which is how
// sequential streams hit after the first request.
type cache struct {
	segments    []segment
	segSectors  int64 // capacity of one segment in sectors
	nextRefresh int
}

// newCache sizes the cache; zero segments disables it.
func newCache(totalBytes int64, segments int) *cache {
	if segments <= 0 || totalBytes <= 0 {
		return &cache{}
	}
	return &cache{
		segments:   make([]segment, 0, segments),
		segSectors: totalBytes / int64(segments) / 512,
	}
}

// enabled reports whether the cache holds anything at all.
func (c *cache) enabled() bool { return c.segSectors > 0 && cap(c.segments) > 0 }

// lookup reports whether [lbn, lbn+n) is fully cached, touching the recency
// of the first segment in slice order that holds it (the one LRU eviction
// must see touched).
//
// Containment, lbn >= s.start && end <= s.end, is one sign test: the
// OR of the two differences is negative exactly when either is. Every
// operand is a sector number in [0, total], so neither difference
// overflows. On a miss, which is most disk I/Os, the scan then has no
// data-dependent branch per segment to mispredict.
func (c *cache) lookup(lbn int64, n int, now time.Duration) bool {
	if !c.enabled() {
		return false
	}
	end := lbn + int64(n)
	for i := range c.segments {
		s := &c.segments[i]
		if (lbn-s.start)|(s.end-end) >= 0 {
			s.lastUse = now
			return true
		}
	}
	return false
}

// fill installs a read's range plus read-ahead into the LRU segment.
func (c *cache) fill(lbn int64, n int, total int64, now time.Duration) {
	if !c.enabled() {
		return
	}
	end := lbn + c.segSectors
	if end < lbn+int64(n) {
		end = lbn + int64(n) // oversized request: cache it whole anyway
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

// invalidate drops any segment overlapping a written range (write-through
// with invalidation — the conservative policy for data integrity), keeping
// the survivors in order.
//
// Overlap, s.end > lbn && s.start < end, is the sign test
// (s.end-lbn-1)|(end-s.start-1) >= 0, as in lookup. Most writes overlap
// nothing, so the slice is rewritten only from the first overlapping
// segment on.
func (c *cache) invalidate(lbn int64, n int) {
	if !c.enabled() {
		return
	}
	end := lbn + int64(n)
	overlaps := func(s *segment) bool { return (s.end-lbn-1)|(end-s.start-1) >= 0 }
	i := 0
	for i < len(c.segments) && !overlaps(&c.segments[i]) {
		i++
	}
	if i == len(c.segments) {
		return
	}
	out := c.segments[:i]
	for j := i + 1; j < len(c.segments); j++ {
		if !overlaps(&c.segments[j]) {
			out = append(out, c.segments[j])
		}
	}
	c.segments = out
}
