package trace

import "sync/atomic"

// The two ring shapes every recorder in the tree builds on. SPSC is
// the lock-free single-producer ring the audit facility introduced for
// parallel runs and the flight recorder now shares; Last is the
// bounded overwrite-oldest log used wherever "keep the most recent N"
// is the retention policy (the audit trail, the flight recorder's
// retained history).

// SPSC is a bounded lock-free single-producer single-consumer ring:
// one goroutine pushes, one drains. The producer drops (and counts)
// entries rather than overwrite a slot the drainer has not consumed,
// so Push and Drain never touch the same element — loss is accounted,
// never silent, and neither side ever blocks.
type SPSC[T any] struct {
	buf     []T
	head    atomic.Uint64 // next write, producer-owned
	tail    atomic.Uint64 // next read, drainer-owned
	dropped atomic.Uint64
	// wpos and rpos are head and tail modulo len(buf), kept by their
	// owners so that neither side divides per entry.
	wpos int // producer-owned
	rpos int // drainer-owned
}

// NewSPSC builds a ring holding up to n entries (minimum 1).
func NewSPSC[T any](n int) *SPSC[T] {
	if n < 1 {
		n = 1
	}
	return &SPSC[T]{buf: make([]T, n)}
}

// Push appends v, or drops it (counting the loss) when the ring is
// full. Producer goroutine only.
func (r *SPSC[T]) Push(v T) bool {
	h, t := r.head.Load(), r.tail.Load()
	if h-t == uint64(len(r.buf)) {
		r.dropped.Add(1)
		return false
	}
	r.buf[r.wpos] = v
	if r.wpos++; r.wpos == len(r.buf) {
		r.wpos = 0
	}
	r.head.Store(h + 1)
	return true
}

// Drain consumes every entry pushed so far, oldest first. Drainer
// goroutine only; safe against a concurrent producer.
func (r *SPSC[T]) Drain(f func(T)) {
	t, h := r.tail.Load(), r.head.Load()
	for ; t < h; t++ {
		f(r.buf[r.rpos])
		if r.rpos++; r.rpos == len(r.buf) {
			r.rpos = 0
		}
	}
	r.tail.Store(t)
}

// Len reports how many entries are buffered and not yet drained.
func (r *SPSC[T]) Len() int { return int(r.head.Load() - r.tail.Load()) }

// Cap reports the ring capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Dropped reports how many entries were lost to a full ring. Safe from
// any goroutine.
func (r *SPSC[T]) Dropped() uint64 { return r.dropped.Load() }

// Last is a bounded log that keeps the most recent n entries,
// overwriting the oldest. Single-goroutine; pair it with an SPSC when
// the producer lives elsewhere.
type Last[T any] struct {
	buf    []T
	next   int
	filled bool
}

// NewLast builds a log retaining up to n entries (minimum 1).
func NewLast[T any](n int) *Last[T] {
	if n < 1 {
		n = 1
	}
	return &Last[T]{buf: make([]T, n)}
}

// Append records v, evicting the oldest entry when full.
func (l *Last[T]) Append(v T) {
	l.buf[l.next] = v
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.filled = true
	}
}

// Snapshot returns the retained entries, oldest first.
func (l *Last[T]) Snapshot() []T {
	if !l.filled {
		out := make([]T, l.next)
		copy(out, l.buf[:l.next])
		return out
	}
	out := make([]T, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// Len reports how many entries are retained.
func (l *Last[T]) Len() int {
	if l.filled {
		return len(l.buf)
	}
	return l.next
}

// Cap reports the retention capacity.
func (l *Last[T]) Cap() int { return len(l.buf) }
