package sim

import "context"

// Source yields items lazily: Next returns the next item and true, or the
// zero value and false once the stream is exhausted. Sources backed by a
// seeded RNG must yield the identical sequence on every run.
type Source[T any] interface {
	Next() (T, bool)
}

// Sink consumes items as they are produced.
type Sink[T any] interface {
	Push(T)
}

// SourceFunc adapts a function to a Source.
type SourceFunc[T any] func() (T, bool)

// Next implements Source.
func (f SourceFunc[T]) Next() (T, bool) { return f() }

// SinkFunc adapts a function to a Sink.
type SinkFunc[T any] func(T)

// Push implements Sink.
func (f SinkFunc[T]) Push(v T) { f(v) }

// sliceSource walks a slice without copying it.
type sliceSource[T any] struct {
	items []T
	i     int
}

func (s *sliceSource[T]) Next() (T, bool) {
	if s.i >= len(s.items) {
		var zero T
		return zero, false
	}
	v := s.items[s.i]
	s.i++
	return v, true
}

// FromSlice returns a Source over the slice (which is not copied; callers
// must not mutate it while the source is live).
func FromSlice[T any](items []T) Source[T] { return &sliceSource[T]{items: items} }

// Collect drains a source into a slice — the batch-compatibility wrapper's
// other half. Use it only when the caller genuinely needs the whole stream.
func Collect[T any](src Source[T]) []T {
	var out []T
	for {
		v, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Limit caps a source at n items.
func Limit[T any](src Source[T], n int64) Source[T] {
	return SourceFunc[T](func() (T, bool) {
		if n <= 0 {
			var zero T
			return zero, false
		}
		n--
		return src.Next()
	})
}

// Gate wraps src so it reports exhaustion once ctx is done. It is the
// cooperative-cancellation hook for the streaming runs: the event loops
// admit one request per Next, so a cancelled context ends the run at the
// next admission instead of after the whole trace. With a never-cancelled
// context the wrapped source yields the identical sequence (one nil-error
// check per item), so gating does not disturb the bit-identity contract.
// A context that can never be cancelled (Done returns nil, as for
// context.Background and context.TODO) returns src itself, so an
// uncancellable run pays nothing per item.
func Gate[T any](ctx context.Context, src Source[T]) Source[T] {
	if ctx.Done() == nil {
		return src
	}
	return SourceFunc[T](func() (T, bool) {
		if ctx.Err() != nil {
			var zero T
			return zero, false
		}
		return src.Next()
	})
}

// Appender is a Sink that collects into a slice.
type Appender[T any] struct{ Items []T }

// Push implements Sink.
func (a *Appender[T]) Push(v T) { a.Items = append(a.Items, v) }

// Discard returns a Sink that drops everything (pure-throughput runs).
func Discard[T any]() Sink[T] { return SinkFunc[T](func(T) {}) }
