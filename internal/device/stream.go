package device

// Stream is a CUDA-style compute stream: kernels enqueued on one stream
// execute on the GPU strictly in FIFO order, one at a time. Kernels from
// different streams co-run on the GPU under its contention model — this is
// exactly the structure behind Figure 2: each TF session drives its own
// stream, so one model's kernels serialize while two models' kernels
// interleave and contend.
type Stream struct {
	gpu      *GPU
	queue    []Kernel
	inflight bool
	// drainFns collects Drain callbacks; notifyDrained swaps it with
	// drainSpare before firing, so a callback that calls Drain lands in
	// the next round and neither buffer is reallocated.
	drainFns   []func()
	drainSpare []func()
	// current is the in-flight kernel; the GPU sees kernelDoneFn
	// (s.kernelDone, bound once) in place of its callbacks.
	current      Kernel
	kernelDoneFn func()
}

// NewStream creates a stream bound to gpu.
func NewStream(gpu *GPU) *Stream {
	s := &Stream{gpu: gpu}
	s.kernelDoneFn = s.kernelDone
	return s
}

// GPU returns the device the stream issues to.
func (s *Stream) GPU() *GPU { return s.gpu }

// Enqueue appends k to the stream. It begins executing once all earlier
// kernels on this stream have completed.
func (s *Stream) Enqueue(k Kernel) {
	s.queue = append(s.queue, k)
	s.pump()
}

// Abort discards every queued (not yet issued) kernel. The in-flight
// kernel, if any, runs to completion — the paper's preemption lets
// dispatched kernels finish because there is no mechanism to selectively
// stop them (§3.3). Returns the number of kernels discarded. Aborted
// kernels' OnDone callbacks never fire.
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
	k := s.queue[0]
	left := copy(s.queue, s.queue[1:])
	s.queue[left] = Kernel{}
	s.queue = s.queue[:left]
	s.inflight = true
	s.current = k
	k.OnDone, k.Done = s.kernelDoneFn, nil
	s.gpu.Submit(k)
}

// kernelDone is the GPU-side callback of every kernel the stream issues.
func (s *Stream) kernelDone() {
	s.inflight = false
	k := s.current
	s.current = Kernel{}
	k.fire()
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
