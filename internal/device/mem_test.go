package device

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMemPoolAllocFree(t *testing.T) {
	p := NewMemPool("gpu:0", 100)
	if err := p.Alloc(60); err != nil {
		t.Fatalf("Alloc(60): %v", err)
	}
	if got := p.Used(); got != 60 {
		t.Fatalf("Used() = %d, want 60", got)
	}
	if got := p.Available(); got != 40 {
		t.Fatalf("Available() = %d, want 40", got)
	}
	p.Free(20)
	if got := p.Used(); got != 40 {
		t.Fatalf("Used() after free = %d, want 40", got)
	}
}

func TestMemPoolOOM(t *testing.T) {
	p := NewMemPool("gpu:0", 100)
	if err := p.Alloc(90); err != nil {
		t.Fatalf("Alloc(90): %v", err)
	}
	err := p.Alloc(20)
	if err == nil {
		t.Fatal("Alloc(20) beyond capacity succeeded")
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("error %T, want *OOMError", err)
	}
	if oom.Requested != 20 || oom.Used != 90 || oom.Capacity != 100 {
		t.Fatalf("OOM fields = %+v", oom)
	}
	// A failed allocation must not change usage.
	if got := p.Used(); got != 90 {
		t.Fatalf("Used() after OOM = %d, want 90", got)
	}
}

func TestMemPoolZeroAndNegativeAreNoOps(t *testing.T) {
	p := NewMemPool("gpu:0", 10)
	if err := p.Alloc(0); err != nil {
		t.Fatalf("Alloc(0): %v", err)
	}
	if err := p.Alloc(-5); err != nil {
		t.Fatalf("Alloc(-5): %v", err)
	}
	p.Free(0)
	p.Free(-5)
	if p.Used() != 0 {
		t.Fatalf("Used() = %d, want 0", p.Used())
	}
}

func TestMemPoolOverFreePanics(t *testing.T) {
	p := NewMemPool("gpu:0", 100)
	_ = p.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Error("over-free did not panic")
		}
	}()
	p.Free(20)
}

// Property: any sequence of allocations that all succeed keeps
// used <= capacity and used equals the sum of live allocations.
func TestMemPoolInvariantProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		p := NewMemPool("gpu:0", 1<<20)
		var live int64
		for _, s := range sizes {
			n := int64(s)
			if err := p.Alloc(n); err != nil {
				var oom *OOMError
				if !errors.As(err, &oom) {
					return false
				}
				continue
			}
			live += n
			if p.Used() > p.capacity {
				return false
			}
		}
		return p.Used() == live
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
