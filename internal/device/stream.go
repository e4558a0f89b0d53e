package device

// Stream is a CUDA-style compute stream: kernels enqueued on one stream
// execute on the GPU strictly in FIFO order, one at a time. Kernels from
// different streams co-run on the GPU under its contention model — this is
// exactly the structure behind Figure 2: each TF session drives its own
// stream, so one model's kernels serialize while two models' kernels
// interleave and contend.
//
// A kernel is copied once from the stream into the GPU's execution slot,
// which records the stream: at completion the GPU hands the kernel back
// through kernelDone, which fires the kernel's own callback and issues the
// next one. A kernel enqueued on an idle stream skips the queue.
type Stream struct {
	gpu      *GPU
	queue    []Kernel
	inflight bool
	// drainFns collects Drain callbacks; notifyDrained swaps it with
	// drainSpare before firing, so a callback that calls Drain lands in
	// the next round and neither buffer is reallocated.
	drainFns   []func()
	drainSpare []func()
}

// NewStream creates a stream bound to gpu.
func NewStream(gpu *GPU) *Stream { return &Stream{gpu: gpu} }

// GPU returns the device the stream issues to.
func (s *Stream) GPU() *GPU { return s.gpu }

// Enqueue appends k to the stream. It begins executing once all earlier
// kernels on this stream have completed.
func (s *Stream) Enqueue(k Kernel) {
	if !s.inflight && len(s.queue) == 0 {
		s.inflight = true
		s.gpu.submit(&k, s)
		return
	}
	s.queue = append(s.queue, k)
	s.pump()
}

// Abort discards every queued (not yet issued) kernel. The in-flight
// kernel, if any, runs to completion — the paper's preemption lets
// dispatched kernels finish because there is no mechanism to selectively
// stop them (§3.3). Returns the number of kernels discarded. Aborted
// kernels' callbacks, OnDone or Done, never fire.
func (s *Stream) Abort() int {
	n := len(s.queue)
	clear(s.queue)
	s.queue = s.queue[:0]
	return n
}

// Drain invokes fn once the in-flight kernel (if any) completes and the
// queue is empty. With an empty stream it fires immediately (inline).
func (s *Stream) Drain(fn func()) {
	if !s.inflight && len(s.queue) == 0 {
		fn()
		return
	}
	s.drainFns = append(s.drainFns, fn)
}

func (s *Stream) pump() {
	if s.inflight || len(s.queue) == 0 {
		return
	}
	s.inflight = true
	s.gpu.submit(&s.queue[0], s)
	left := copy(s.queue, s.queue[1:])
	s.queue[left] = Kernel{}
	s.queue = s.queue[:left]
}

// kernelDone is called by the GPU when the stream's in-flight kernel
// completes, with that kernel's callback.
func (s *Stream) kernelDone(onDone func(), done func(tag int32), tag int32) {
	s.inflight = false
	fire(onDone, done, tag)
	s.pump()
	s.notifyDrained()
}

func (s *Stream) notifyDrained() {
	if s.inflight || len(s.queue) != 0 || len(s.drainFns) == 0 {
		return
	}
	fns := s.drainFns
	s.drainFns, s.drainSpare = s.drainSpare[:0], nil
	for i, fn := range fns {
		fns[i] = nil
		fn()
	}
	s.drainSpare = fns[:0]
}
