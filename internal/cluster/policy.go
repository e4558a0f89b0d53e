package cluster

import "switchflow/internal/workload"

// leastLoaded places on the GPU running the fewest jobs (ties: most free
// memory), spreading load across the fleet.
func leastLoaded(c *Cluster, cfg workload.Config) (*Node, int, bool) {
	need := weightsNeeded(cfg)
	var (
		bestNode *Node
		bestGPU  int
		found    bool
	)
	better := func(n *Node, gpu int) bool {
		if !found {
			return true
		}
		if n.perGPU[gpu].jobs != bestNode.perGPU[bestGPU].jobs {
			return n.perGPU[gpu].jobs < bestNode.perGPU[bestGPU].jobs
		}
		return freeWeightBytes(n, gpu) > freeWeightBytes(bestNode, bestGPU)
	}
	for _, n := range c.nodes {
		for gpu := range n.perGPU {
			if freeWeightBytes(n, gpu) < need {
				continue
			}
			if better(n, gpu) {
				bestNode, bestGPU, found = n, gpu, true
			}
		}
	}
	return bestNode, bestGPU, found
}

// Collocate is the SwitchFlow-enabled placement policy: inference
// services prefer GPUs that host a training job (their requests preempt
// it, so tails stay bounded while the training soaks up idle capacity);
// training spreads least-loaded. Nothing queues while any GPU has memory
// to spare.
type Collocate struct{}

// Place returns a node and GPU index, or ok=false to queue the job.
func (Collocate) Place(c *Cluster, cfg workload.Config) (node *Node, gpu int, ok bool) {
	need := weightsNeeded(cfg)
	if cfg.Kind == workload.KindTraining {
		return leastLoaded(c, cfg)
	}
	// Prefer a GPU with training and the fewest inference tenants.
	var (
		bestNode *Node
		bestGPU  int
		found    bool
	)
	for _, n := range c.nodes {
		for gpu := range n.perGPU {
			if n.perGPU[gpu].training == 0 || freeWeightBytes(n, gpu) < need {
				continue
			}
			inference := n.perGPU[gpu].jobs - n.perGPU[gpu].training
			if !found || inference < bestNode.perGPU[bestGPU].jobs-bestNode.perGPU[bestGPU].training {
				bestNode, bestGPU, found = n, gpu, true
			}
		}
	}
	if found {
		return bestNode, bestGPU, true
	}
	return leastLoaded(c, cfg)
}
