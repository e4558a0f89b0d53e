package sim

import "time"

// Lane is a sub-queue of an Engine for a source with many long-lived
// events, such as a pool whose workers each wait on one finish. Only the
// lane's earliest item sits in the engine's heap, so the heap holds one
// entry for the whole source.
//
// Lane.After behaves exactly like Engine.After, except that it returns no
// handle: an item cannot be cancelled. The item takes the engine's next
// sequence number when After is called, and it enters the heap at that
// reserved (at, seq) once it is the lane's earliest, so items fire in the
// same (at, seq) order, and count toward Fired the same way, as plain
// events would. When an item fires, the lane arms its next item before
// running the callback, so a callback that calls Step or RunUntil on the
// engine sees every pending item.
type Lane struct {
	eng *Engine
	// items is a ring of the pending items, sorted by (at, seq) from
	// items[head]; its length is a power of two.
	items []laneItem
	head  int
	n     int
	// armed is the heap event standing for items[head], at its (at, seq);
	// nil while the lane is empty.
	armed  *event
	fireFn func() // l.fire, bound once
}

type laneItem struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// NewLane returns an empty lane on e whose ring holds size items before
// it grows.
func (e *Engine) NewLane(size int) *Lane {
	n := 1
	for n < size {
		n *= 2
	}
	l := &Lane{eng: e, items: make([]laneItem, n)}
	l.fireFn = l.fire
	return l
}

// After registers fn to run d from the current virtual time, at
// e.Due(d), in the order Engine.After would give it.
func (l *Lane) After(d time.Duration, fn func()) {
	e := l.eng
	at := e.Due(d)
	e.seq++
	if l.n == len(l.items) {
		l.grow()
	}
	// The new item has the largest sequence number, so it goes after
	// every item due at or before at. Items a batch starts together are
	// due in time order, so the walk from the tail usually stops at once.
	mask := len(l.items) - 1
	i := l.n
	for ; i > 0; i-- {
		prev := &l.items[(l.head+i-1)&mask]
		if prev.at <= at {
			break
		}
		l.items[(l.head+i)&mask] = *prev
	}
	l.items[(l.head+i)&mask] = laneItem{at: at, seq: e.seq, fn: fn}
	l.n++
	if i > 0 {
		return
	}
	if l.armed == nil {
		l.armed = e.push(at, e.seq, l.fireFn)
		return
	}
	// The new head is earlier than the armed one: move the armed event to
	// the new key, which only sifts it up.
	l.armed.at, l.armed.seq = at, e.seq
	e.up(int(l.armed.index))
}

// fire is the armed event's callback: it pops the head item, arms the
// next one at its reserved key, then runs the popped item.
func (l *Lane) fire() {
	it := &l.items[l.head]
	fn := it.fn
	it.fn = nil
	l.head = (l.head + 1) & (len(l.items) - 1)
	l.n--
	l.armed = nil
	if l.n > 0 {
		next := &l.items[l.head]
		l.armed = l.eng.push(next.at, next.seq, l.fireFn)
	}
	fn()
}

// grow doubles the ring, unrolling it to start at index zero.
func (l *Lane) grow() {
	items := make([]laneItem, 2*len(l.items))
	mask := len(l.items) - 1
	for i := 0; i < l.n; i++ {
		items[i] = l.items[(l.head+i)&mask]
	}
	l.items, l.head = items, 0
}
