package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"time"
)

// spanLimit caps the spans one traced run keeps in memory.
const spanLimit = 200000

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one simulated request or job share Req; Parent is the ID of the
// span whose interval contains this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was created, read from the monotonic clock.
type tracer struct {
	base    time.Time
	spans   []span
	limit   int
	nextID  int64
	dropped int64
}

func newTracer(limit int) *tracer { return &tracer{base: time.Now(), limit: limit} }

// now reads the monotonic clock in nanoseconds since the tracer's base.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record keeps one span and returns its ID (0 once the limit is reached).
func (t *tracer) record(name string, parent, req, start, end int64) int64 {
	if len(t.spans) >= t.limit {
		t.dropped++
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{name, t.nextID, parent, req, start, end})
	return t.nextID
}

// skip counts a span that sampling left out.
func (t *tracer) skip(n int64) { t.dropped += n }

// writeFile writes the kept spans as NDJSON.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// digest folds output values into a short hex fingerprint (FNV-64a).
// Floats are folded by their exact bits, so two digests agree only when
// every value agrees bit for bit.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) int(v int64)     { d.u64(uint64(v)) }
func (d *digest) float(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) hex() string     { return fmt.Sprintf("%016x", d.h.Sum64()) }

// deriveSeed derives an independent sub-seed from the workload seed for
// one named input (splitmix64 over the seed and a hash of the name).
func deriveSeed(seed int64, name string, i int) int64 {
	d := newDigest()
	d.str(name)
	d.int(int64(i))
	z := uint64(seed) + d.h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}
