// Package vnode is the virtual-node placement layer between the
// scheduler core and the device model, after VirtualFlow
// (arXiv:2009.09523): a job's global batch is represented as N virtual
// nodes, each carrying a share of the batch and bound to one physical
// device. The binding is a runtime property — the core re-splits it at
// epoch-safe points to grow or shrink a running job's device set, heal
// around a lost device without a restart, or drain a device for
// maintenance. Heterogeneous mixes are first-class: shares are sized in
// inverse proportion to each device's priced step time, so a 1080 Ti and
// a 2080 Ti bound to the same job finish their shards together.
//
// The package is deliberately device-model-thin: it knows device
// identities and a pricing callback, nothing else, so workload and core
// own when bindings change and vnode owns only what a valid binding is.
package vnode

import (
	"fmt"
	"time"

	"switchflow/internal/device"
)

// VNode is one virtual node: a fixed index within its job, the physical
// device it is currently bound to, and the share of the job's global
// batch (in samples) its shard computes per step.
type VNode struct {
	// Index is the vnode's stable position within the job's binding.
	Index int
	// Device is the physical device the vnode is bound to.
	Device device.ID
	// Share is the number of samples of the global batch this vnode
	// computes each step; shares across a binding sum to the batch.
	Share int
}

// Binding is an immutable snapshot of a job's virtual-node placement.
// Operations that change placement (grow, shrink, rebind) produce a new
// Binding via Split; the zero value is an empty binding.
type Binding struct {
	nodes []VNode
}

// Pricer prices one training step of the given sample count on dev (the
// serialized kernel cost under the roofline model — workload supplies it
// from internal/cost). Split uses it to size heterogeneous shares.
type Pricer func(dev device.ID, samples int) (time.Duration, error)

// Single is the degenerate one-vnode binding every plain job has: the
// whole batch on one device.
func Single(dev device.ID, batch int) Binding {
	return Binding{nodes: []VNode{{Index: 0, Device: dev, Share: batch}}}
}

// Split distributes a global batch of total samples across one vnode per
// entry of devs, sizing each share in inverse proportion to the device's
// priced step time so all shards finish together (VirtualFlow §4:
// throughput-proportional partitioning over heterogeneous GPUs). Every
// vnode receives at least one sample; remainders go to the fastest
// devices first, ties broken by vnode index so the result is
// deterministic. Devices may repeat — repeated entries time-multiplex
// the device and split its throughput evenly.
func Split(total int, devs []device.ID, price Pricer) (Binding, error) {
	n := len(devs)
	if n == 0 {
		return Binding{}, fmt.Errorf("vnode: split needs at least one device")
	}
	if total < n {
		return Binding{}, fmt.Errorf("vnode: batch %d cannot split across %d virtual nodes (each needs >= 1 sample)", total, n)
	}
	if n == 1 {
		return Single(devs[0], total), nil
	}
	// Speed of each vnode ~ 1 / (step price at an equal share). Pricing at
	// the equal split (rather than the full batch) keeps the probe cheap
	// and stays within the monotone region of the roofline model; the
	// relative speeds are what matters.
	probe := total / n
	if probe < 1 {
		probe = 1
	}
	speeds := make([]float64, n)
	var sum float64
	for i, dev := range devs {
		d, err := price(dev, probe)
		if err != nil {
			return Binding{}, fmt.Errorf("vnode: price %v: %w", dev, err)
		}
		if d <= 0 {
			d = time.Nanosecond
		}
		speeds[i] = 1 / d.Seconds()
		sum += speeds[i]
	}
	// Largest-remainder apportionment with a one-sample floor.
	nodes := make([]VNode, n)
	remainders := make([]float64, n)
	assigned := 0
	for i, dev := range devs {
		ideal := float64(total) * speeds[i] / sum
		share := int(ideal)
		if share < 1 {
			share = 1
		}
		nodes[i] = VNode{Index: i, Device: dev, Share: share}
		remainders[i] = ideal - float64(share)
		assigned += share
	}
	for assigned < total {
		best := 0
		for i := 1; i < n; i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		nodes[best].Share++
		remainders[best]--
		assigned++
	}
	for assigned > total {
		// Over-assignment only happens via the one-sample floor on very
		// slow devices; take the excess back from the largest shares.
		best := 0
		for i := 1; i < n; i++ {
			if nodes[i].Share > nodes[best].Share {
				best = i
			}
		}
		if nodes[best].Share <= 1 {
			break // unreachable given total >= n, kept as a hard stop
		}
		//swlint:allow counterflow repayment loop: each pass takes one unit back from a distinct largest share; `assigned > total` bounds it
		nodes[best].Share--
		//swlint:allow counterflow assigned mirrors the Share repayment above and the loop condition bounds it
		assigned--
	}
	return Binding{nodes: nodes}, nil
}

// Len returns the number of virtual nodes.
func (b Binding) Len() int { return len(b.nodes) }

// Node returns vnode i.
func (b Binding) Node(i int) VNode { return b.nodes[i] }

// Devices returns the distinct bound devices in first-use (vnode index)
// order — a deterministic order independent of map iteration.
func (b Binding) Devices() []device.ID {
	var out []device.ID
	for _, n := range b.nodes {
		seen := false
		for _, d := range out {
			if d == n.Device {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, n.Device)
		}
	}
	return out
}

// Uses reports whether any vnode is bound to dev.
func (b Binding) Uses(dev device.ID) bool {
	for _, n := range b.nodes {
		if n.Device == dev {
			return true
		}
	}
	return false
}

// DeviceList returns the per-vnode device assignment in index order —
// the input Split needs to re-split the same topology.
func (b Binding) DeviceList() []device.ID {
	out := make([]device.ID, len(b.nodes))
	for i, n := range b.nodes {
		out[i] = n.Device
	}
	return out
}

// String renders the binding as "gpu:0(42)+gpu:1(86)".
func (b Binding) String() string {
	s := ""
	for i, n := range b.nodes {
		if i > 0 {
			s += "+"
		}
		s += fmt.Sprintf("%s(%d)", n.Device, n.Share)
	}
	return s
}
