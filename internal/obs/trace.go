package obs

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Attr is one span annotation. Values are pre-rendered strings so a span is
// plain data: rendering at record time keeps the writer trivial and the
// bytes deterministic.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// AttrInt builds an integer annotation.
func AttrInt(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// AttrBool builds a boolean annotation.
func AttrBool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// AttrFloat builds a float annotation (shortest round-trip form).
func AttrFloat(k string, v float64) Attr { return Attr{Key: k, Value: formatFloat(v)} }

// AttrDur builds a duration annotation in fractional milliseconds — the
// unit every response-time table in this repository reports.
func AttrDur(k string, d time.Duration) Attr {
	return AttrFloat(k, float64(d)/float64(time.Millisecond))
}

// Span is one interval on the simulation clock: a request's lifetime from
// arrival to completion, a DTM throttle episode, an RPM transition. Start
// and End are sim time (not wall time), so spans from a seeded run are
// bit-reproducible. ID is assigned by the Tracer in record order.
type Span struct {
	ID    int64         `json:"id"`
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Dur returns the span's length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer collects spans. A nil *Tracer is the disabled state: Record is a
// single nil check with zero allocations, which is how the sim layers stay
// free when no -trace-out is requested. A Tracer is safe for concurrent use,
// but for deterministic output each engine records into its own Tracer and
// the runner merges them in a fixed order (see Merge).
type Tracer struct {
	mu      sync.Mutex
	limit   int
	spans   []Span
	dropped int64
	nextID  int64
}

// DefaultSpanLimit is the per-run span retention cap runners use when the
// caller does not pick one: enough for every request of the paper-scale
// workloads, small enough that a runaway replay cannot exhaust memory.
const DefaultSpanLimit = 1 << 20

// NewTracer returns a tracer retaining at most limit spans (limit <= 0
// means unlimited). Spans past the limit are counted in Dropped rather
// than retained, bounding memory on long replays.
func NewTracer(limit int) *Tracer { return &Tracer{limit: limit} }

// Record appends a span, assigning its ID (nil-safe no-op).
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Merge re-records sub's spans into t in sub's record order, reassigning
// IDs. The sweep runners give each worker its own sub-tracer and merge them
// in input order, which is what keeps -trace-out byte-identical at any
// worker count.
func (t *Tracer) Merge(sub *Tracer) {
	if t == nil || sub == nil {
		return
	}
	for _, s := range sub.Spans() {
		t.Record(s)
	}
	t.mu.Lock()
	t.dropped += sub.Dropped()
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans the limit discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteSpans writes spans as NDJSON, one object per line, in order.
func WriteSpans(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSpansFile writes the tracer's spans to path as NDJSON.
func WriteSpansFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteSpans(f, t.Spans()); err != nil {
		return err
	}
	return f.Close()
}
