package cluster

// All-or-nothing topology-aware gang placement (ROADMAP item 4). A gang
// submission asks for Replicas GPUs on ONE node — partial placements
// never happen: either a full slot exists and every replica lands this
// barrier, or the whole gang waits in the gang queue. Slots are priced
// on each node's interconnect fabric, so an NVLink-contiguous set beats
// a PCIe-scattered one whenever both fit, and the cheapest-slot node
// wins the gang. Queued gangs retry at every epoch barrier (and after
// every Stop) in arrival order, so the oldest gang that fits a freed slot
// takes it.

import (
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/topology"
	"switchflow/internal/workload"
)

// GangQueued returns the number of whole gangs waiting for a slot.
func (c *Cluster) GangQueued() int { return len(c.gangQueue) }

// NewNVLink builds a cluster like New, but installs an NVLink-island
// fabric (islands of the given size) on every node, so gang placement
// has real topology to price against.
func NewNVLink(policy Collocate, count, island int, gpus ...device.GPUClass) *Cluster {
	c := New(policy, count, gpus...)
	for _, n := range c.nodes {
		fabric := topology.NVLinkIslands(len(gpus), island, maxPCIeGBps(gpus), topology.DefaultNVLinkGBps)
		if err := n.machine.SetFabric(fabric); err != nil {
			panic(err) // unreachable: fabric sized from the same class list
		}
	}
	return c
}

func maxPCIeGBps(gpus []device.GPUClass) float64 {
	bw := 0.0
	for _, g := range gpus {
		if g.PCIeGBps > bw {
			bw = g.PCIeGBps
		}
	}
	return bw
}

// gangWidth resolves the gang's replica count from the submission.
func gangWidth(cfg workload.Config) int {
	if len(cfg.VNodes) > 0 {
		return len(cfg.VNodes)
	}
	if cfg.Replicas > 1 {
		return cfg.Replicas
	}
	return 1
}

// tryPlaceGang finds a full slot for the gang: on each node, every
// placeable GPU with room for a whole replica (weights plus optimizer
// state — DDP replicates them all) and no training job already on it
// (§1: "DNN training jobs are usually allocated dedicated GPUs"; a
// replica time-slicing another trainer would gate its whole gang's
// barrier) is a candidate, and the node's fabric picks the cheapest
// size-width ring among them. The cheapest slot across the fleet wins,
// ties to the lowest node index then the lexicographically smallest GPU
// set, so placement is deterministic. Either every replica lands here or
// none does — partial gangs never exist. Inference may still collocate
// onto gang GPUs afterwards; preemption bounds the interference.
func (c *Cluster) tryPlaceGang(h *JobHandle) bool {
	width := gangWidth(h.Cfg)
	need := weightsNeeded(h.Cfg)
	grad := h.Cfg.Model.ParamBytes()
	var bestNode *Node
	var bestSlot []int
	var bestCost time.Duration
	for _, n := range c.nodes {
		var cands []int
		for gpu := range n.perGPU {
			if n.perGPU[gpu].training == 0 && freeWeightBytes(n, gpu) >= need {
				cands = append(cands, gpu)
			}
		}
		if len(cands) < width {
			continue
		}
		slot, cost, ok := n.machine.Fabric().BestSlot(cands, width, grad)
		if !ok {
			continue
		}
		if bestNode == nil || cost < bestCost {
			bestNode, bestSlot, bestCost = n, slot, cost
		}
	}
	if bestNode == nil {
		return false
	}
	cfg := h.Cfg
	cfg.VNodes = make([]device.ID, width)
	for i, gpu := range bestSlot {
		cfg.VNodes[i] = device.GPUID(gpu)
	}
	cfg.Device = cfg.VNodes[0]
	cfg.Replicas = 0 // materialized into VNodes
	job, err := bestNode.mgr.AddJob(cfg)
	if err != nil {
		// The packer believed it fits but admission disagreed; the gang
		// stays whole in the queue.
		return false
	}
	h.Job = job
	h.node = bestNode
	h.Placed = true
	h.Where = Placement{Node: bestNode.Name, GPU: bestSlot[0], GPUs: bestSlot}
	h.PlacedAt = c.Now()
	bestNode.machine.Bus().Emit(obs.Event{
		Kind:   obs.KindGangPlace,
		Ctx:    job.Ctx,
		Job:    cfg.Name,
		Device: device.GPUID(bestSlot[0]).String(),
		From:   bestNode.Name,
		Name:   h.Where.String(),
		Dur:    bestCost,
		Count:  width,
	})
	for _, gpu := range bestSlot {
		bestNode.perGPU[gpu].jobs++
		if cfg.Kind == workload.KindTraining {
			bestNode.perGPU[gpu].training++
		}
	}
	c.placed = append(c.placed, h)
	return true
}
