// Package topology models the GPU interconnect fabric of one server —
// which pairs of devices are joined by NVLink and which fall back to the
// PCIe tree — and prices collective operations over it. The SwitchFlow
// paper's testbeds are PCIe-only boxes, but the gang-scheduled
// data-parallel training this reproduction adds (ROADMAP item 4, after
// the synchronous replication design of TensorFlow OSDI'16) lives or
// dies on gradient-sync cost, and that cost is a property of the fabric:
// a ring all-reduce over an NVLink island is several times cheaper than
// the same ring crossing the PCIe switch.
//
// The cost model is the standard alpha-beta formulation: a ring
// all-reduce of B bytes over N devices runs 2(N-1) steps (N-1
// reduce-scatter, N-1 all-gather), each moving a B/N-byte chunk along
// every ring link simultaneously, so a step costs alpha (per-hop link
// latency) plus (B/N)/beta over the *slowest* link on the ring — the
// whole ring advances at the pace of its worst hop. That is what makes
// placement topology-sensitive: one PCIe link in an otherwise-NVLink
// ring prices the entire collective at PCIe bandwidth.
//
// Fabrics are immutable after construction, so one Fabric value may be
// shared read-only across the per-node engines of a sharded cluster.
package topology

import (
	"fmt"
	"sort"
	"time"

	"switchflow/internal/sim"
)

// LinkKind classifies the interconnect joining a GPU pair.
type LinkKind int

const (
	// PCIe is the default host tree every pair can reach.
	PCIe LinkKind = iota
	// NVLink is a direct high-bandwidth point-to-point link.
	NVLink
)

// String returns the canonical name of the link kind.
func (k LinkKind) String() string {
	if k == NVLink {
		return "nvlink"
	}
	return "pcie"
}

// Modeled defaults. PCIe 3.0 x16 sustains ~11.3 GB/s (the paper's
// measured peer path); a V100-generation NVLink pair sustains ~48 GB/s.
const (
	DefaultPCIeGBps   = 11.3
	DefaultNVLinkGBps = 48.0
	// DefaultHopLatency is the alpha term: per-hop link/launch latency of
	// one ring step.
	DefaultHopLatency = 5 * time.Microsecond
)

// Fabric is the interconnect of one machine's GPU set: a symmetric
// bandwidth/kind matrix plus the per-hop latency term. Build one with
// NewPCIe or NVLinkIslands, customize with ConnectNVLink, then treat it
// as read-only.
type Fabric struct {
	n    int
	hop  time.Duration
	gbps [][]float64
	kind [][]LinkKind
}

// NewPCIe builds an n-GPU fabric where every pair shares the PCIe tree
// at the given bandwidth (gbps <= 0 selects DefaultPCIeGBps).
func NewPCIe(n int, gbps float64) *Fabric {
	if n < 0 {
		n = 0
	}
	if gbps <= 0 {
		gbps = DefaultPCIeGBps
	}
	f := &Fabric{n: n, hop: DefaultHopLatency}
	f.gbps = make([][]float64, n)
	f.kind = make([][]LinkKind, n)
	for i := 0; i < n; i++ {
		f.gbps[i] = make([]float64, n)
		f.kind[i] = make([]LinkKind, n)
		for j := 0; j < n; j++ {
			if i != j {
				f.gbps[i][j] = gbps
			}
		}
	}
	return f
}

// NVLinkIslands builds an n-GPU fabric partitioned into contiguous
// NVLink islands of the given size: GPUs [0,island), [island,2*island),
// ... are fully NVLink-connected within their island; every cross-island
// pair rides PCIe. island <= 1 degenerates to NewPCIe. Bandwidths <= 0
// select the package defaults.
func NVLinkIslands(n, island int, pcieGBps, nvlinkGBps float64) *Fabric {
	f := NewPCIe(n, pcieGBps)
	if island <= 1 {
		return f
	}
	if nvlinkGBps <= 0 {
		nvlinkGBps = DefaultNVLinkGBps
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n && b/island == a/island; b++ {
			f.ConnectNVLink(a, b, nvlinkGBps)
		}
	}
	return f
}

// ConnectNVLink joins GPUs a and b with a symmetric NVLink of the given
// bandwidth (gbps <= 0 selects DefaultNVLinkGBps). Call only during
// construction, before the fabric is shared.
func (f *Fabric) ConnectNVLink(a, b int, gbps float64) {
	if a < 0 || b < 0 || a >= f.n || b >= f.n || a == b {
		return
	}
	if gbps <= 0 {
		gbps = DefaultNVLinkGBps
	}
	f.gbps[a][b], f.gbps[b][a] = gbps, gbps
	f.kind[a][b], f.kind[b][a] = NVLink, NVLink
}

// Size returns the number of GPUs the fabric spans.
func (f *Fabric) Size() int { return f.n }

// Bandwidth returns the link bandwidth between GPUs a and b in GB/s;
// zero for out-of-range or identical indices.
func (f *Fabric) Bandwidth(a, b int) float64 {
	if a < 0 || b < 0 || a >= f.n || b >= f.n || a == b {
		return 0
	}
	return f.gbps[a][b]
}

// Kind returns the link kind between GPUs a and b (PCIe for
// out-of-range or identical indices).
func (f *Fabric) Kind(a, b int) LinkKind {
	if a < 0 || b < 0 || a >= f.n || b >= f.n || a == b {
		return PCIe
	}
	return f.kind[a][b]
}

// RingAllReduceTime prices a synchronous ring all-reduce of bytes over
// the ring visiting the GPUs in the given cyclic order: 2(N-1) steps,
// each costing hop latency plus a bytes/N chunk over the slowest link of
// the ring (including the wrap-around link). A ring of fewer than two
// GPUs, or a non-positive byte count, costs nothing. Unknown GPU indices
// make the ring unpriceable and return an error.
func (f *Fabric) RingAllReduceTime(ring []int, bytes int64) (time.Duration, error) {
	n := len(ring)
	if n < 2 || bytes <= 0 {
		return 0, nil
	}
	minGBps := 0.0
	for i := range ring {
		bw := f.Bandwidth(ring[i], ring[(i+1)%n])
		if bw <= 0 {
			return 0, fmt.Errorf("topology: no link gpu:%d -> gpu:%d", ring[i], ring[(i+1)%n])
		}
		if minGBps == 0 || bw < minGBps {
			minGBps = bw
		}
	}
	chunk := float64(bytes) / float64(n)
	perStep := f.hop + sim.Nanos(chunk/(minGBps*1e9)*float64(time.Second))
	return time.Duration(2*(n-1)) * perStep, nil
}

// RingCost prices the all-reduce over the canonical (ascending-index)
// ring of the given GPU set — the deterministic order every layer of the
// stack uses, so placement decisions and runtime step costs agree.
func (f *Fabric) RingCost(gpus []int, bytes int64) (time.Duration, error) {
	return f.RingAllReduceTime(canonicalRing(gpus), bytes)
}

// BestSlot chooses the size-k subset of the candidate GPUs whose
// canonical ring prices the all-reduce cheapest — the topology-aware
// gang bin-packing primitive. Candidates are deduplicated; ties break
// toward the lexicographically smallest subset (in ascending candidate
// order), so the choice is deterministic. ok is false when fewer than k
// distinct candidates exist or no subset prices successfully.
func (f *Fabric) BestSlot(candidates []int, k int, bytes int64) (slot []int, cost time.Duration, ok bool) {
	cands := canonicalRing(candidates)
	if k <= 0 || len(cands) < k {
		return nil, 0, false
	}
	pick := make([]int, 0, k)
	var walk func(start int)
	walk = func(start int) {
		if len(pick) == k {
			c, err := f.RingCost(pick, bytes)
			if err != nil {
				return
			}
			// Strict <: the first (lexicographically smallest) subset wins
			// ties.
			if !ok || c < cost {
				slot = append(slot[:0], pick...)
				cost, ok = c, true
			}
			return
		}
		for i := start; i <= len(cands)-(k-len(pick)); i++ {
			pick = append(pick, cands[i])
			walk(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	walk(0)
	return slot, cost, ok
}

// canonicalRing sorts and deduplicates a GPU set into the canonical
// ascending-index ring order.
func canonicalRing(gpus []int) []int {
	out := make([]int, 0, len(gpus))
	out = append(out, gpus...)
	sort.Ints(out)
	dedup := out[:0]
	for i, g := range out {
		if i == 0 || g != out[i-1] {
			dedup = append(dedup, g)
		}
	}
	return dedup
}
