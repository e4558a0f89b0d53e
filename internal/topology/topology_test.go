package topology

import (
	"testing"
	"time"
)

// near asserts got is within 1µs of want — the hand-computed values below
// are exact in decimal; the tolerance only absorbs float64 rounding in
// the bytes/bandwidth division.
func near(t *testing.T, what string, got, want time.Duration) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("%s = %v, want %v (±1µs)", what, got, want)
	}
}

// Hand-computed: 4 GPUs all-PCIe at 10 GB/s, hop 5µs, 100 MB gradient.
// N=4 → chunk 25 MB; per-step = 5µs + 25e6/10e9 s = 5µs + 2.5ms;
// 2(N-1)=6 steps → 6 × 2.505ms = 15.03ms.
func TestRingAllReducePCIeOnly(t *testing.T) {
	f := NewPCIe(4, 10)
	got, err := f.RingCost([]int{0, 1, 2, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "pcie ring", got, 15030*time.Microsecond)
}

// Hand-computed on a 4-GPU machine with NVLink islands {0,1} and {2,3}
// (NVLink 50 GB/s, PCIe 10 GB/s, hop 5µs), 100 MB gradient:
//
//	ring {0,1}: N=2, chunk 50 MB over NVLink → 2 × (5µs + 1ms)   = 2.01ms
//	ring {1,2}: N=2, chunk 50 MB over PCIe   → 2 × (5µs + 5ms)   = 10.01ms
//
// The NVLink pair is 5x cheaper — the measurable difference gang
// placement exists to exploit.
func TestRingAllReduceNVLinkIsland(t *testing.T) {
	f := NVLinkIslands(4, 2, 10, 50)
	nv, err := f.RingCost([]int{0, 1}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "nvlink pair", nv, 2010*time.Microsecond)
	px, err := f.RingCost([]int{1, 2}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "cross-island pair", px, 10010*time.Microsecond)
	if nv >= px {
		t.Fatalf("nvlink ring %v should beat pcie ring %v", nv, px)
	}
}

// Hand-computed mixed ring: all four GPUs of the island machine. The
// ring 0-1-2-3-0 crosses PCIe twice (1→2 and 3→0), and the slowest link
// prices every step, so the mixed ring costs exactly what the all-PCIe
// ring does: 6 × (5µs + 25e6/10e9 s) = 15.03ms. One PCIe hop forfeits
// the whole NVLink advantage.
func TestRingAllReduceMixedRing(t *testing.T) {
	island := NVLinkIslands(4, 2, 10, 50)
	pcie := NewPCIe(4, 10)
	mixed, err := island.RingCost([]int{0, 1, 2, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "mixed ring", mixed, 15030*time.Microsecond)
	flat, err := pcie.RingCost([]int{0, 1, 2, 3}, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if mixed != flat {
		t.Fatalf("mixed ring %v should price identically to all-PCIe %v (slowest link dominates)", mixed, flat)
	}
}

func TestRingAllReduceDegenerate(t *testing.T) {
	f := NewPCIe(4, 10)
	if d, err := f.RingCost([]int{2}, 1<<30); err != nil || d != 0 {
		t.Fatalf("single-GPU ring = (%v, %v), want free", d, err)
	}
	if d, err := f.RingCost([]int{0, 1}, 0); err != nil || d != 0 {
		t.Fatalf("zero-byte ring = (%v, %v), want free", d, err)
	}
	if _, err := f.RingCost([]int{0, 9}, 1); err == nil {
		t.Fatal("out-of-range GPU should be unpriceable")
	}
}

func TestBestSlotPrefersNVLinkContiguous(t *testing.T) {
	f := NVLinkIslands(4, 2, 10, 50)
	slot, cost, ok := f.BestSlot([]int{0, 1, 2, 3}, 2, 100_000_000)
	if !ok {
		t.Fatal("BestSlot failed")
	}
	if len(slot) != 2 || slot[0] != 0 || slot[1] != 1 {
		t.Fatalf("slot = %v, want [0 1] (first NVLink island)", slot)
	}
	if !nvlinkContiguous(f, slot) {
		t.Fatalf("slot %v should be NVLink-contiguous", slot)
	}
	near(t, "best slot cost", cost, 2010*time.Microsecond)

	// With GPU 0 occupied, the placer should jump to the other island
	// rather than straddle it with {1,2}.
	slot, _, ok = f.BestSlot([]int{1, 2, 3}, 2, 100_000_000)
	if !ok || slot[0] != 2 || slot[1] != 3 {
		t.Fatalf("slot = %v (ok=%v), want [2 3] (second island)", slot, ok)
	}
}

func TestBestSlotDeterministicTieBreak(t *testing.T) {
	f := NewPCIe(4, 10)
	// Every pair prices identically on a flat fabric; the lexicographically
	// smallest subset must win.
	slot, _, ok := f.BestSlot([]int{3, 1, 2, 0}, 2, 1<<20)
	if !ok || slot[0] != 0 || slot[1] != 1 {
		t.Fatalf("slot = %v (ok=%v), want [0 1] tie-break", slot, ok)
	}
	if _, _, ok := f.BestSlot([]int{0, 0, 1}, 3, 1<<20); ok {
		t.Fatal("duplicate candidates should not satisfy k=3")
	}
}

func TestNVLinkContiguous(t *testing.T) {
	f := NVLinkIslands(8, 4, 0, 0)
	if !nvlinkContiguous(f, []int{0, 1, 2, 3}) {
		t.Fatal("island {0..3} should be NVLink-contiguous")
	}
	if nvlinkContiguous(f, []int{2, 3, 4, 5}) {
		t.Fatal("straddling ring should not be NVLink-contiguous")
	}
	if !nvlinkContiguous(f, []int{6}) {
		t.Fatal("singleton is trivially contiguous")
	}
}

// nvlinkContiguous reports whether the canonical ring over gpus (the
// ascending-index cycle) runs entirely on NVLink, the slot shape the gang
// placer prefers.
func nvlinkContiguous(f *Fabric, gpus []int) bool {
	ring := canonicalRing(gpus)
	for i := range ring {
		if len(ring) > 1 && f.Kind(ring[i], ring[(i+1)%len(ring)]) != NVLink {
			return false
		}
	}
	return true
}
