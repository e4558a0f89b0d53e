package device

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"

	"switchflow/internal/sim"
)

// The differential test in this file drives the GPU and its streams, and
// refGPU, a copy of the device model's arithmetic kept in test code, with
// byte-for-byte identical scripts, and asserts that both complete the same
// kernels at the same virtual times in the same order. The reference is
// the contract at its plainest: a fresh struct per kernel, the processor-
// sharing rate applied to every running kernel, the earliest finish found
// by dividing each remaining work by the rate, the completion event
// cancelled and scheduled anew, and a stream that rebinds each kernel's
// callback to its own. Any divergence is a bug in the fast paths of the
// GPU model.

// refExec is one kernel at the reference device.
type refExec struct {
	Kernel
	remaining float64 // seconds of solo work left
	occ       float64
}

// fire runs k's completion callback, the tagged form first.
func (k *Kernel) fire() { fire(k.OnDone, k.Done, k.Tag) }

// refGPU mirrors GPU's advance/rate/reschedule/complete arithmetic.
type refGPU struct {
	eng        *sim.Engine
	running    []*refExec
	queue      []*refExec
	usedOcc    float64
	lastUpdate time.Duration
	completion sim.Event
	launched   uint64
	dropped    uint64
	failed     bool
	slowdown   float64
}

func (g *refGPU) Submit(k Kernel) {
	if g.failed {
		g.dropped++
		return
	}
	g.advance()
	occ := k.Occupancy
	if occ < 0.05 {
		occ = 0.05
	}
	if occ > 1 {
		occ = 1
	}
	g.queue = append(g.queue, &refExec{Kernel: k, remaining: k.Work.Seconds(), occ: occ})
	g.launched++
	g.admit()
	g.reschedule()
}

func (g *refGPU) Fail() int {
	if g.failed {
		return 0
	}
	g.advance()
	lost := len(g.running) + len(g.queue)
	g.dropped += uint64(lost)
	g.running, g.queue = nil, nil
	g.usedOcc = 0
	g.completion.Cancel()
	g.failed = true
	return lost
}

func (g *refGPU) Degrade(factor float64) {
	if factor < 1 {
		factor = 1
	}
	g.advance()
	g.slowdown = factor
	g.reschedule()
}

func (g *refGPU) Heal() {
	g.advance()
	g.failed = false
	g.slowdown = 0
	g.reschedule()
}

func (g *refGPU) admit() {
	for len(g.queue) > 0 && g.usedOcc+g.queue[0].occ <= 1.0001 {
		g.usedOcc += g.queue[0].occ
		g.running = append(g.running, g.queue[0])
		g.queue = g.queue[1:]
	}
}

func (g *refGPU) advance() {
	now := g.eng.Now()
	elapsed := (now - g.lastUpdate).Seconds()
	g.lastUpdate = now
	if elapsed <= 0 || len(g.running) == 0 {
		return
	}
	rate := g.rate()
	for _, e := range g.running {
		e.remaining -= elapsed * rate
		if e.remaining < 0 {
			e.remaining = 0
		}
	}
}

func (g *refGPU) rate() float64 {
	rate := 1.0
	if n := len(g.running); n > 1 {
		rate = 1 / (1 + contentionBeta*float64(n-1))
	}
	if g.slowdown > 1 {
		rate /= g.slowdown
	}
	return rate
}

func (g *refGPU) reschedule() {
	g.completion.Cancel()
	if len(g.running) == 0 {
		return
	}
	rate := g.rate()
	minLeft := math.MaxFloat64
	for _, e := range g.running {
		if left := e.remaining / rate; left < minLeft {
			minLeft = left
		}
	}
	delay := time.Duration(math.Ceil(minLeft * float64(time.Second)))
	g.completion = g.eng.After(delay, g.complete)
}

func (g *refGPU) complete() {
	g.advance()
	var done, remaining []*refExec
	for _, e := range g.running {
		if e.remaining <= 1e-9 {
			done = append(done, e)
			g.usedOcc -= e.occ
		} else {
			remaining = append(remaining, e)
		}
	}
	g.running = remaining
	if len(g.running) == 0 {
		g.usedOcc = 0
	}
	g.admit()
	for _, e := range done {
		e.fire()
	}
	if !g.completion.Scheduled() {
		g.reschedule()
	}
}

// refStream is a stream that issues its head kernel with the callback
// rebound to its own, and fires the kernel's callback from there.
type refStream struct {
	gpu      *refGPU
	queue    []Kernel
	inflight bool
	current  Kernel
	drainFns []func()
}

func (s *refStream) Enqueue(k Kernel) {
	s.queue = append(s.queue, k)
	s.pump()
}

func (s *refStream) Abort() int {
	n := len(s.queue)
	s.queue = nil
	return n
}

func (s *refStream) Drain(fn func()) {
	if !s.inflight && len(s.queue) == 0 {
		fn()
		return
	}
	s.drainFns = append(s.drainFns, fn)
}

func (s *refStream) pump() {
	if s.inflight || len(s.queue) == 0 {
		return
	}
	k := s.queue[0]
	s.queue = s.queue[1:]
	s.inflight = true
	s.current = k
	k.OnDone, k.Done = s.kernelDone, nil
	s.gpu.Submit(k)
}

func (s *refStream) kernelDone() {
	s.inflight = false
	k := s.current
	k.fire()
	s.pump()
	if s.inflight || len(s.queue) != 0 {
		return
	}
	fns := s.drainFns
	s.drainFns = nil
	for _, fn := range fns {
		fn()
	}
}

// gpuUnderTest is the part of GPU and refGPU a script drives.
type gpuUnderTest interface {
	Submit(Kernel)
	Fail() int
	Degrade(float64)
	Heal()
}

// streamUnderTest is the part of Stream and refStream a script drives.
type streamUnderTest interface {
	Enqueue(Kernel)
	Abort() int
	Drain(func())
}

// gpuSide is one implementation under a script, with the log of what its
// callbacks saw.
type gpuSide struct {
	eng     *sim.Engine
	gpu     gpuUnderTest
	streams []streamUnderTest
	log     []string
	ids     int
}

func newGPUSide(streams int) *gpuSide {
	eng := sim.NewEngine()
	gpu := NewGPU(eng, GPUID(0), ClassV100)
	s := &gpuSide{eng: eng, gpu: gpu}
	for i := 0; i < streams; i++ {
		s.streams = append(s.streams, NewStream(gpu))
	}
	return s
}

func newRefSide(streams int) *gpuSide {
	eng := sim.NewEngine()
	gpu := &refGPU{eng: eng}
	s := &gpuSide{eng: eng, gpu: gpu}
	for i := 0; i < streams; i++ {
		s.streams = append(s.streams, &refStream{gpu: gpu})
	}
	return s
}

// record logs one callback with the clock it fired at.
func (s *gpuSide) record(what string) {
	s.log = append(s.log, strconv.FormatInt(int64(s.eng.Now()), 10)+" "+what)
}

// kernel builds the next kernel. Its callback logs it and, by its id
// alone so both sides agree, may act on the device: re-enter the engine
// with Step after launching two 1 ns kernels, so the step retires them
// while this completion is still delivering its batch; degrade, heal or
// fail the GPU; and launch a child, on the same stream (stream >= 0) or
// directly on the GPU. Odd ids use the Done/Tag form.
func (s *gpuSide) kernel(stream int, work time.Duration, occ float64, depth int) Kernel {
	id := s.ids
	s.ids++
	name := "k" + strconv.Itoa(id)
	k := Kernel{Name: name, Work: work, Occupancy: occ, Ctx: stream}
	done := func() {
		s.record(name)
		switch id % 23 {
		case 4:
			if depth < 3 {
				s.gpu.Submit(s.kernel(-1, 1, 0, 3))
				s.gpu.Submit(s.kernel(-1, 1, 0, 3))
				s.record("step " + strconv.FormatBool(s.eng.Step()))
			}
		case 9:
			s.gpu.Degrade(float64(2 + id%5))
		case 14:
			s.gpu.Heal()
		case 19:
			s.record("fail " + strconv.Itoa(s.gpu.Fail()))
		}
		if depth >= 3 || id%3 != 0 {
			return
		}
		child := s.kernel(stream, work/2+time.Duration(id%7)*time.Microsecond, 1.2-occ, depth+1)
		if stream >= 0 {
			s.streams[stream].Enqueue(child)
		} else {
			s.gpu.Submit(child)
		}
	}
	if id%2 == 1 {
		k.Done, k.Tag = func(int32) { done() }, int32(id)
	} else {
		k.OnDone = done
	}
	return k
}

// gpuScript interprets data as a script over both sides and fails t on
// any divergence. The first byte picks 1-4 streams; then each op byte
// submits, enqueues, advances the clock, steps, degrades, heals, aborts
// and drains a stream or, rarely, fails the device.
func gpuScript(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	n := int(data[0]%4) + 1
	sides := []*gpuSide{newGPUSide(n), newRefSide(n)}
	for i := 1; i < len(data); i++ {
		arg := func(bytes int) uint64 {
			v := uint64(0)
			for ; bytes > 0 && i+1 < len(data); bytes-- {
				i++
				v = v<<8 | uint64(data[i])
			}
			return v
		}
		switch op := data[i] % 16; {
		case op < 9: // op 0-2 submit directly, 3-8 enqueue on a stream
			stream := -1
			if op > 2 {
				stream = int(arg(1)) % n
			}
			// Work from 0 ns to 2.54 s, across Seconds' 1 s split, and
			// from 999,000 s to 1,001,621 s, across the lone-kernel bound
			// (1e6 s at v = 25,000); occupancy from 0 to 1.275, across
			// both clamps.
			v := arg(2)
			var work time.Duration
			switch sel := arg(1); sel % 4 {
			case 0:
				work = time.Duration(v % 1000)
			case 1:
				work = time.Duration(v) * time.Microsecond
			case 2:
				work = time.Duration(v) * 16 * time.Microsecond
			case 3:
				work = 900*time.Millisecond + time.Duration(v)*25*time.Microsecond
				if sel >= 0xc0 {
					work = 999_000*time.Second + time.Duration(v)*40*time.Millisecond
				}
			}
			occ := float64(arg(1)) / 200
			for _, s := range sides {
				k := s.kernel(stream, work, occ, 0)
				if stream < 0 {
					s.gpu.Submit(k)
				} else {
					s.streams[stream].Enqueue(k)
				}
			}
		case op < 11: // advance the clock by up to 4.2 s
			d := time.Duration(arg(2)) * time.Duration(1+arg(1)) * 250
			for _, s := range sides {
				s.eng.RunUntil(s.eng.Now() + d)
			}
		case op == 11:
			for _, s := range sides {
				s.eng.Step()
			}
		case op == 12: // factors below 1 clamp to healthy
			f := float64(arg(1)) / 16
			for _, s := range sides {
				s.gpu.Degrade(f)
			}
		case op == 13:
			for _, s := range sides {
				s.gpu.Heal()
			}
		case op == 14:
			stream := int(arg(1)) % n
			for _, s := range sides {
				s.record("abort " + strconv.Itoa(s.streams[stream].Abort()))
				s.streams[stream].Drain(func() { s.record("drained " + strconv.Itoa(stream)) })
			}
		case arg(1)%4 == 0: // a failed device stays failed until Heal
			for _, s := range sides {
				s.record("fail " + strconv.Itoa(s.gpu.Fail()))
			}
		}
		compareGPUSides(t, i, sides[0], sides[1])
	}
	for _, s := range sides {
		s.eng.Run()
	}
	compareGPUSides(t, len(data), sides[0], sides[1])
}

func compareGPUSides(t *testing.T, op int, got, ref *gpuSide) {
	t.Helper()
	if got.eng.Now() != ref.eng.Now() || got.eng.Fired() != ref.eng.Fired() {
		t.Fatalf("op %d: clock/events diverge: %v/%d, reference %v/%d",
			op, got.eng.Now(), got.eng.Fired(), ref.eng.Now(), ref.eng.Fired())
	}
	if len(got.log) != len(ref.log) {
		t.Fatalf("op %d: %d callbacks, reference %d:\n%v\n%v", op, len(got.log), len(ref.log), got.log, ref.log)
	}
	for i := range got.log {
		if got.log[i] != ref.log[i] {
			t.Fatalf("op %d: callback %d is %q, reference %q", op, i, got.log[i], ref.log[i])
		}
	}
	g, r := got.gpu.(*GPU), ref.gpu.(*refGPU)
	if g.launched != r.launched || g.dropped != r.dropped {
		t.Fatalf("op %d: launched/dropped %d/%d, reference %d/%d", op, g.launched, g.dropped, r.launched, r.dropped)
	}
	// The work left must match to the bit, not just to the nanosecond a
	// completion rounds it up to.
	if len(g.running) != len(r.running) || len(g.queue) != len(r.queue) {
		t.Fatalf("op %d: running/queued %d/%d, reference %d/%d", op, len(g.running), len(g.queue), len(r.running), len(r.queue))
	}
	for i, e := range g.running {
		if e.Name != r.running[i].Name || math.Float64bits(e.remaining) != math.Float64bits(r.running[i].remaining) {
			t.Fatalf("op %d: running kernel %d is %s with %v s left, reference %s with %v s",
				op, i, e.Name, e.remaining, r.running[i].Name, r.running[i].remaining)
		}
	}
}

// gpuScriptFromSeed expands a seed into a pseudo-random script with a
// xorshift64* generator.
func gpuScriptFromSeed(seed uint64, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		data[i] = byte((seed * 0x2545f4914f6cdd1d) >> 56)
	}
	return data
}

// FuzzGPUMatchesReference checks that every kernel and drain completes at
// the time and in the order the reference gives, bit for bit.
func FuzzGPUMatchesReference(f *testing.F) {
	// Heavy kernels on two streams and a light one submitted directly.
	f.Add([]byte{1, 3, 0, 3, 232, 1, 180, 3, 1, 3, 232, 1, 180, 3, 0, 7, 208, 1, 180, 0, 1, 244, 1, 40})
	// A stream kernel of 1.0024 s degraded, healed and failed mid-flight,
	// then a kernel queued behind it and one submitted after Heal.
	f.Add([]byte{0, 3, 0, 16, 0, 3, 100, 9, 7, 208, 199, 12, 40, 9, 7, 208, 199, 13, 9, 7, 208, 199,
		15, 0, 3, 0, 0, 100, 1, 100, 13, 0, 0, 100, 1, 100})
	// A submit 1.299998941 s after the last update, where Seconds' whole
	// and fractional parts round differently from one quotient.
	f.Add([]byte{0, 0, 3, 231, 0, 60, 0, 255, 255, 3, 60, 9, 203, 32, 99, 0, 3, 232, 1, 60})
	// Kernels k4 and k5 retire together, and k4's callback launches two
	// 1 ns kernels and steps the engine, which retires them in a nested
	// completion while the outer one is still delivering k5.
	f.Add([]byte{0, 0, 3, 232, 1, 60, 0, 3, 232, 1, 60, 9, 78, 32, 0,
		0, 0, 10, 1, 60, 0, 3, 232, 1, 60, 0, 3, 232, 1, 60, 9, 78, 32, 0,
		0, 3, 232, 1, 60, 0, 3, 232, 1, 60})
	// A chain of 1 ms kernels on one stream beside a light direct one:
	// k9's callback degrades the GPU, k14's heals it, k19's fails it.
	for _, n := range []int{10, 15, 20} {
		f.Add(append([]byte{0, 0, 3, 232, 1, 10}, bytes.Repeat([]byte{3, 0, 3, 232, 1, 180}, n)...))
	}
	// Lone kernels with 1e6 s of solo work less 40 ms, exactly, and plus
	// 40 ms, one after another; then the same on a device degraded by 2
	// beside a light kernel.
	lone := []byte{0, 97, 167, 0xc3, 180, 0, 97, 168, 0xc3, 180, 0, 97, 169, 0xc3, 180}
	f.Add(append([]byte{0}, lone...))
	f.Add(append([]byte{0, 12, 32, 0, 3, 232, 1, 10}, lone...))
	for seed := uint64(1); seed <= 24; seed++ {
		f.Add(gpuScriptFromSeed(seed*0x9e3779b97f4a7c15, 64+int(seed)*24))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		gpuScript(t, data)
	})
}
