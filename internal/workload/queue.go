package workload

import "time"

// arrivalQueue is a FIFO of request arrival times backed by a ring
// buffer. The serving path used to pop with `q = q[1:]`, which keeps the
// whole backing array reachable — over a long swserved run the queue's
// memory grew with every request ever enqueued. The ring reuses its
// storage, so resident memory tracks the high-water queue depth instead
// of the request count.
type arrivalQueue struct {
	buf  []time.Duration
	head int
	n    int
}

// Len returns the number of queued arrivals.
func (q *arrivalQueue) Len() int { return q.n }

// Push appends an arrival time.
func (q *arrivalQueue) Push(t time.Duration) {
	q.grow(1)
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

// PushFront prepends arrivals, preserving their order (used when an
// aborted compute run returns its micro-batch to the ready queue).
func (q *arrivalQueue) PushFront(ts []time.Duration) {
	q.grow(len(ts))
	for i := len(ts) - 1; i >= 0; i-- {
		q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
		q.buf[q.head] = ts[i]
		q.n++
	}
}

// Pop removes and returns the oldest arrival. Panics when empty, like a
// slice index would.
func (q *arrivalQueue) Pop() time.Duration {
	if q.n == 0 {
		panic("workload: pop from empty arrival queue")
	}
	t := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

// PopN removes the k oldest arrivals, appends them to out and returns
// the result, so a caller that passes its previous batch[:0] reuses its
// storage.
func (q *arrivalQueue) PopN(out []time.Duration, k int) []time.Duration {
	for i := 0; i < k; i++ {
		out = append(out, q.Pop())
	}
	return out
}

func (q *arrivalQueue) grow(need int) {
	if q.n+need <= len(q.buf) {
		return
	}
	size := len(q.buf) * 2
	if size < 8 {
		size = 8
	}
	for size < q.n+need {
		size *= 2
	}
	buf := make([]time.Duration, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}
