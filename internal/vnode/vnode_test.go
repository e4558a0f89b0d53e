package vnode

import (
	"testing"
	"time"

	"switchflow/internal/device"
)

// flatPrice prices every device identically: shares should split evenly.
func flatPrice(_ device.ID, samples int) (time.Duration, error) {
	return time.Duration(samples) * time.Millisecond, nil
}

// total returns b's summed shares (the job's global batch).
func total(b Binding) int {
	t := 0
	for _, n := range b.nodes {
		t += n.Share
	}
	return t
}

func TestSingle(t *testing.T) {
	b := Single(device.GPUID(2), 64)
	if b.Len() != 1 || b.Node(0).Device != device.GPUID(2) || b.Node(0).Share != 64 {
		t.Fatalf("unexpected single binding %v", b)
	}
	if total(b) != 64 {
		t.Fatalf("total = %d, want 64", total(b))
	}
}

func TestSplitEven(t *testing.T) {
	devs := []device.ID{device.GPUID(0), device.GPUID(1)}
	b, err := Split(64, devs, flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || total(b) != 64 {
		t.Fatalf("binding %v: want 2 vnodes totalling 64", b)
	}
	if b.Node(0).Share != 32 || b.Node(1).Share != 32 {
		t.Fatalf("equal devices should split evenly, got %v", b)
	}
}

func TestSplitHeterogeneous(t *testing.T) {
	// gpu:1 runs 3x faster than gpu:0; its share should be ~3x larger.
	price := func(dev device.ID, samples int) (time.Duration, error) {
		d := time.Duration(samples) * time.Millisecond
		if dev.Index == 1 {
			d /= 3
		}
		return d, nil
	}
	b, err := Split(100, []device.ID{device.GPUID(0), device.GPUID(1)}, price)
	if err != nil {
		t.Fatal(err)
	}
	if total(b) != 100 {
		t.Fatalf("total = %d, want 100", total(b))
	}
	s0, s1 := b.Node(0).Share, b.Node(1).Share
	if s0 != 25 || s1 != 75 {
		t.Fatalf("3x-speed split of 100 = (%d, %d), want (25, 75)", s0, s1)
	}
}

func TestSplitRemainderIsDeterministic(t *testing.T) {
	devs := []device.ID{device.GPUID(0), device.GPUID(1), device.GPUID(2)}
	first, err := Split(100, devs, flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	if total(first) != 100 {
		t.Fatalf("total = %d, want 100", total(first))
	}
	for i := 0; i < 10; i++ {
		again, err := Split(100, devs, flatPrice)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < first.Len(); j++ {
			if first.Node(j) != again.Node(j) {
				t.Fatalf("run %d differs at vnode %d: %v vs %v", i, j, first.Node(j), again.Node(j))
			}
		}
	}
}

func TestSplitMinimumShare(t *testing.T) {
	// A device 1000x slower than the others still gets one sample.
	price := func(dev device.ID, samples int) (time.Duration, error) {
		d := time.Duration(samples) * time.Millisecond
		if dev.Index == 2 {
			d *= 1000
		}
		return d, nil
	}
	devs := []device.ID{device.GPUID(0), device.GPUID(1), device.GPUID(2)}
	b, err := Split(64, devs, price)
	if err != nil {
		t.Fatal(err)
	}
	if total(b) != 64 {
		t.Fatalf("total = %d, want 64", total(b))
	}
	for i := 0; i < b.Len(); i++ {
		if b.Node(i).Share < 1 {
			t.Fatalf("vnode %d got share %d, want >= 1", i, b.Node(i).Share)
		}
	}
}

func TestSplitRepeatedDevice(t *testing.T) {
	// Two vnodes time-multiplexed on one device split it evenly.
	devs := []device.ID{device.GPUID(0), device.GPUID(0)}
	b, err := Split(10, devs, flatPrice)
	if err != nil {
		t.Fatal(err)
	}
	if b.Node(0).Share != 5 || b.Node(1).Share != 5 {
		t.Fatalf("repeated device split %v, want 5+5", b)
	}
	if got := b.Devices(); len(got) != 1 || got[0] != device.GPUID(0) {
		t.Fatalf("Devices() = %v, want one distinct device", got)
	}
	if !b.Uses(device.GPUID(0)) || b.Uses(device.GPUID(1)) {
		t.Fatalf("Uses() disagrees with binding %v", b)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split(4, nil, flatPrice); err == nil {
		t.Fatal("empty device list should fail")
	}
	devs := []device.ID{device.GPUID(0), device.GPUID(1), device.GPUID(2)}
	if _, err := Split(2, devs, flatPrice); err == nil {
		t.Fatal("batch smaller than vnode count should fail")
	}
}

func TestBindingString(t *testing.T) {
	b := Single(device.GPUID(1), 8)
	if got := b.String(); got != "gpu:1(8)" {
		t.Fatalf("String() = %q", got)
	}
}
