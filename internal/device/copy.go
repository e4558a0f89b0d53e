package device

import (
	"time"

	"switchflow/internal/sim"
)

// Copy-engine constants calibrated against Table 1 of the paper: transfer
// time fits bytes/11.3 GBps + 50 µs per weight tensor across all eight
// reported models.
const (
	// PerTensorOverhead is the fixed cost of issuing one tensor copy.
	PerTensorOverhead = 50 * time.Microsecond
	// baseCopyLatency is the setup latency of a bulk DMA.
	baseCopyLatency = 10 * time.Microsecond
)

// CopyEngine is a FIFO DMA channel (one direction of a PCIe link, or a
// GPU-to-GPU path). Transfers queue behind each other.
type CopyEngine struct {
	eng           *sim.Engine
	bandwidthGBps float64
	busyUntil     time.Duration
	transferred   int64
	// inflight holds the callbacks of tagged transfers not yet complete,
	// in issue order. The channel is FIFO, so they complete in that order,
	// and each completion event (fireNextFn, bound once) runs the head.
	inflight   []taggedDone
	fireNextFn func()
}

// taggedDone is one TransferTagged completion: fire(arg).
type taggedDone struct {
	fire func(arg uint64)
	arg  uint64
}

// NewCopyEngine creates a channel with the given bulk bandwidth.
func NewCopyEngine(eng *sim.Engine, bandwidthGBps float64) *CopyEngine {
	c := &CopyEngine{eng: eng, bandwidthGBps: bandwidthGBps}
	c.fireNextFn = c.fireNext
	return c
}

// TransferTime returns the service time (excluding queueing) of moving
// n bytes split across tensors tensor objects.
func (c *CopyEngine) TransferTime(n int64, tensors int) time.Duration {
	if n <= 0 {
		return 0
	}
	if tensors < 1 {
		tensors = 1
	}
	bulk := sim.Nanos(float64(n) / (c.bandwidthGBps * 1e9) * float64(time.Second))
	return baseCopyLatency + bulk + time.Duration(tensors)*PerTensorOverhead
}

// Transfer enqueues a copy of n bytes in tensors tensor objects and returns
// its completion time. onDone (optional) fires at completion.
func (c *CopyEngine) Transfer(n int64, tensors int, onDone func()) time.Duration {
	done := c.enqueue(n, tensors)
	if onDone != nil {
		c.eng.Schedule(done, onDone)
	}
	return done
}

// TransferTagged is Transfer of one tensor with a completion that fires
// with arg. It is the allocation-free form for callers that copy often:
// one callback bound once, with the per-transfer state in arg.
func (c *CopyEngine) TransferTagged(n int64, fire func(arg uint64), arg uint64) time.Duration {
	done := c.enqueue(n, 1)
	c.inflight = append(c.inflight, taggedDone{fire: fire, arg: arg})
	c.eng.Schedule(done, c.fireNextFn)
	return done
}

// enqueue books a transfer behind the queued ones and returns its
// completion time.
func (c *CopyEngine) enqueue(n int64, tensors int) time.Duration {
	start := c.eng.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	done := start + c.TransferTime(n, tensors)
	c.busyUntil = done
	c.transferred += n
	return done
}

// fireNext completes the oldest tagged transfer.
func (c *CopyEngine) fireNext() {
	d := c.inflight[0]
	left := copy(c.inflight, c.inflight[1:])
	c.inflight[left] = taggedDone{}
	c.inflight = c.inflight[:left]
	d.fire(d.arg)
}

// Transferred returns total bytes moved through this engine.
//
//swlint:allow testonly copy accounting that core's checkpoint and migration tests and executor's Send test assert on
func (c *CopyEngine) Transferred() int64 { return c.transferred }
