package device

import "fmt"

// OOMError reports a failed device-memory allocation. It carries enough
// context to render the paper's "model crashes due to OOM" outcomes.
type OOMError struct {
	Device    string
	Requested int64
	Used      int64
	Capacity  int64
}

// Error implements the error interface.
func (e *OOMError) Error() string {
	return fmt.Sprintf("%s: out of memory: requested %d B with %d/%d B in use",
		e.Device, e.Requested, e.Used, e.Capacity)
}

// MemPool is a byte-granular device memory accountant. It tracks the
// current usage; allocation beyond capacity fails with *OOMError. It does
// not model fragmentation.
type MemPool struct {
	device   string
	capacity int64
	used     int64
}

// NewMemPool returns a pool of the given capacity labelled with the device
// name (used in OOM errors).
func NewMemPool(deviceName string, capacity int64) *MemPool {
	return &MemPool{device: deviceName, capacity: capacity}
}

// Alloc reserves n bytes, failing with *OOMError when the pool would
// overflow. Zero and negative sizes are no-ops.
func (p *MemPool) Alloc(n int64) error {
	if n <= 0 {
		return nil
	}
	if p.used+n > p.capacity {
		return &OOMError{
			Device:    p.device,
			Requested: n,
			Used:      p.used,
			Capacity:  p.capacity,
		}
	}
	p.used += n
	return nil
}

// Free releases n bytes. Freeing more than is in use indicates an
// accounting bug and panics.
func (p *MemPool) Free(n int64) {
	if n <= 0 {
		return
	}
	if n > p.used {
		panic(fmt.Sprintf("%s: free of %d B exceeds %d B in use", p.device, n, p.used))
	}
	p.used -= n
}

// Invalidate discards every allocation at once: the device's memory
// contents are gone (device-lost fault). Jobs that held bytes here must
// drop their accounting with workload's ForgetDevice rather than Free,
// which would otherwise underflow the pool.
func (p *MemPool) Invalidate() { p.used = 0 }

// Used returns bytes currently allocated.
func (p *MemPool) Used() int64 { return p.used }

// Available returns bytes that can still be allocated.
func (p *MemPool) Available() int64 { return p.capacity - p.used }
