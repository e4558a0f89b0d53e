// Package cost maps computation-graph nodes to execution costs on concrete
// devices. GPU kernels follow a roofline model (compute-bound vs
// memory-bound) plus a launch overhead; CPU ops charge per-core dense-math
// throughput. It also reproduces TF's expensive/inexpensive op
// classification, which drives executor queueing decisions (§2.1).
package cost

import (
	"sync"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/sim"
)

// computeEfficiency is the fraction of a GPU's peak FP32 throughput a
// cuDNN-style kernel achieves for each op family. Calibrated so that solo
// ResNet50 training at BS=16 on the V100 lands near the paper's
// 226 images/s (Figure 2 discussion).
var computeEfficiency = map[graph.OpType]float64{
	graph.OpConv2D:          0.65,
	graph.OpDepthwiseConv2D: 0.15,
	graph.OpDense:           0.75,
	graph.OpLSTMCell:        0.35,
	graph.OpAttention:       0.45,
	graph.OpEmbedding:       0.30,
	graph.OpGradient:        0.60,
	graph.OpBatchNorm:       0.50,
	graph.OpActivation:      0.60,
	graph.OpPool:            0.50,
	graph.OpAdd:             0.60,
	graph.OpConcat:          0.60,
	graph.OpSoftmax:         0.50,
	graph.OpLoss:            0.40,
	graph.OpApplyGradient:   0.50,
}

// opFootprint is the launch-configuration resource footprint per op
// family. High-footprint kernels are register/SM bound and barely co-run
// with other kernels (§2.2: 10 of 13 conv kernels were
// register-bottlenecked); see internal/occupancy for the calculator that
// backs these values.
var opFootprint = map[graph.OpType]float64{
	graph.OpConv2D:          0.90,
	graph.OpDepthwiseConv2D: 0.70,
	graph.OpDense:           0.90,
	graph.OpLSTMCell:        0.90,
	graph.OpAttention:       0.85,
	graph.OpEmbedding:       0.50,
	graph.OpGradient:        0.90,
	graph.OpBatchNorm:       0.50,
	graph.OpActivation:      0.40,
	graph.OpPool:            0.50,
	graph.OpAdd:             0.30,
	graph.OpConcat:          0.30,
	graph.OpSoftmax:         0.40,
	graph.OpLoss:            0.40,
	graph.OpApplyGradient:   0.40,
}

// kernelKey identifies a kernel cost-model evaluation: the op signature
// (family, FLOPs, memory traffic) and the GPU class it runs on. Identical
// kernels are re-costed on every iteration of every run and every
// experiment cell rebuilds the same model graphs, so the result is worth
// memoizing globally.
type kernelKey struct {
	op    graph.OpType
	flops float64
	mem   int64
	class device.GPUClass
}

// kernelMemo caches KernelDuration results. sync.Map fits the access
// pattern exactly: a small, quickly-stabilizing key set written once and
// then read lock-free from every parallel experiment cell.
var kernelMemo sync.Map // kernelKey -> time.Duration

// KernelDuration returns the solo execution time of node n on a GPU of the
// given class: max(compute time, memory time) under the roofline model.
// Send/Recv and CPU-only ops have no GPU kernel and return zero, and so
// does every op on a class with no throughput (the zero class CPU
// subgraphs classify with), which runs no kernels. Results are memoized
// per (op signature, GPU class), shared across the identical model graphs
// that every experiment cell rebuilds. The executor does not call this per
// kernel: it reads the subgraph's Table.
func KernelDuration(n *graph.Node, class device.GPUClass) time.Duration {
	if _, ok := computeEfficiency[n.Op]; !ok || !hasThroughput(class) {
		return 0
	}
	key := kernelKey{op: n.Op, flops: n.FLOPs, mem: n.MemBytes, class: class}
	if v, ok := kernelMemo.Load(key); ok {
		return v.(time.Duration)
	}
	d := kernelDurationSlow(n, class)
	kernelMemo.Store(key, d)
	return d
}

// hasThroughput reports whether the roofline model can price kernels on
// class: both its compute and its memory throughput are positive. On any
// other class the model would divide by zero, and converting the infinite
// result to a time.Duration is implementation-defined in Go.
func hasThroughput(class device.GPUClass) bool {
	return class.FP32TFLOPS*class.Efficiency > 0 && class.MemBandwidthGBps > 0
}

// kernelDurationSlow evaluates the roofline model without the memo.
func kernelDurationSlow(n *graph.Node, class device.GPUClass) time.Duration {
	eff := computeEfficiency[n.Op]
	computeSec := 0.0
	if n.FLOPs > 0 {
		computeSec = n.FLOPs / (class.FP32TFLOPS * 1e12 * eff * class.Efficiency)
	}
	memSec := 0.0
	if n.MemBytes > 0 {
		memSec = float64(n.MemBytes) / (class.MemBandwidthGBps * 1e9 * 0.75)
	}
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	d := sim.Nanos(sec * float64(time.Second))
	if d < 2*time.Microsecond {
		d = 2 * time.Microsecond // minimum kernel time on device
	}
	return d
}

// Occupancy returns the launch occupancy for n's kernel in [0,1].
func Occupancy(n *graph.Node) float64 {
	if occ, ok := opFootprint[n.Op]; ok {
		return occ
	}
	return 0
}

// IsExpensive reproduces TF's executor cost classification: ops whose
// estimated cost exceeds a threshold get their own local queue; cheap ops
// ride on their parent's queue (§2.1). On a class with no throughput the
// op family alone decides: every op outside the switch is inexpensive.
func IsExpensive(n *graph.Node, class device.GPUClass) bool {
	switch n.Op {
	case graph.OpConv2D, graph.OpDepthwiseConv2D, graph.OpDense,
		graph.OpLSTMCell, graph.OpAttention, graph.OpGradient:
		return true
	case graph.OpPreprocess:
		return true
	default:
		return KernelDuration(n, class) > 100*time.Microsecond
	}
}

// CPUDuration returns how long node n occupies one worker thread when it
// executes on the CPU. Preprocessing shards carry an explicit CPUTime;
// compute ops (a graph migrated to an MKL-style CPU executor, §3.3) charge
// per-core GFLOPS.
func CPUDuration(n *graph.Node, class device.CPUClass) time.Duration {
	var ns float64
	switch {
	case n.CPUTime > 0:
		ns = float64(n.CPUTime) / class.SpeedFactor
	case n.FLOPs > 0:
		ns = n.FLOPs / (class.GFLOPS * 1e9) * float64(time.Second)
	default:
		// Framework bookkeeping ops (iterator, no-op, loss scalar...) cost
		// a few microseconds of CPU time.
		ns = float64(3*time.Microsecond) / class.SpeedFactor
	}
	return sim.Nanos(ns)
}

// Table returns sub's per-node kernel costs on class: work, occupancy and
// the expensive classification of every member node. It is computed once
// per (subgraph, class) and cached on the subgraph's ExecPlan, so a job
// migrating between GPU classes keeps one table per class.
func Table(sub *graph.Subgraph, class device.GPUClass) *graph.KernelTable {
	t, fresh := sub.Plan().KernelTable(class)
	if fresh {
		for _, n := range sub.Nodes {
			t.Costs[n.ID] = graph.KernelCost{
				Work:      KernelDuration(n, class),
				Occupancy: Occupancy(n),
				Expensive: IsExpensive(n, class),
			}
		}
	}
	return t
}

// SerialGPUEstimate prices one execution of sub on a GPU of the given
// class as the serialized sum of per-kernel launch overheads and roofline
// durations. The dynamic batcher and the admission controller use it to
// project micro-batch execution time: because the fixed launch overheads
// and minimum kernel times do not grow with batch size, the estimate
// scales sub-linearly in the batch — a batch of k requests prices well
// below k solo requests.
func SerialGPUEstimate(sub *graph.Subgraph, class device.GPUClass) time.Duration {
	var total time.Duration
	for _, n := range sub.Nodes {
		if d := KernelDuration(n, class); d > 0 {
			total += class.LaunchOverhead + d
		}
	}
	return total
}

// SerialCPUEstimate prices one execution of sub on a CPU of the given
// class as the serialized sum of per-op CPU durations — an upper bound the
// admission controller uses for all-CPU placements.
func SerialCPUEstimate(sub *graph.Subgraph, class device.CPUClass) time.Duration {
	var total time.Duration
	for _, n := range sub.Nodes {
		total += CPUDuration(n, class)
	}
	return total
}
