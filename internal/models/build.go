package models

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/sim"
)

// BuildConfig controls graph construction from a Spec.
type BuildConfig struct {
	// Batch is the mini-batch size (images, or sequences for NMT).
	Batch int
	// Training selects forward+backward+update; otherwise inference.
	Training bool
	// Device places the compute subgraph; device.CPUID produces an
	// MKL-style all-CPU graph (the migration target of §3.3).
	Device device.ID
	// PreprocShards is the number of parallel data-worker nodes on the
	// CPU input stage (the paper uses 32). Zero selects min(32, Batch).
	PreprocShards int
	// PerImageCPU is the CPU cost of decoding + augmenting one input.
	// Zero selects DefaultPerImageCPU for the model's resolution.
	PerImageCPU time.Duration
	// Fuse applies the static-graph elementwise-fusion pass after
	// construction (grappler-style merging, §2).
	Fuse bool
}

// DefaultPerImageCPU models the full tf.data cost of one raw ImageNet
// image on one Xeon core — JPEG decode, resize, augmentation, plus the
// framework's per-element overheads — scaled by the model's input
// resolution. Calibrated against Figure 3 (d-e): inference at BS=128 with
// 32 data workers leaves the V100 idle most of the session for all but
// the heaviest models.
func DefaultPerImageCPU(h, w int) time.Duration {
	const base = 100 * time.Millisecond // 224x224 pipeline
	scale := float64(h*w) / float64(224*224)
	return sim.Nanos(float64(base) * scale)
}

// trainIntermediateFactor scales per-image activation bytes into the
// intermediate training footprint (stored activations for backward plus
// cuDNN workspace). §5.2.3: intermediate data dominates model memory.
const trainIntermediateFactor = 1.2

// inferIntermediateFactor reflects that inference frees activations as it
// goes; only a window stays live.
const inferIntermediateFactor = 0.15

// IntermediateBytes returns the per-run device-memory footprint beyond the
// weights for the given batch.
func (s *Spec) IntermediateBytes(batch int, training bool) int64 {
	factor := inferIntermediateFactor
	if training {
		factor = trainIntermediateFactor
	}
	return int64(float64(s.ActivationBytes()*int64(batch)) * factor)
}

// Build constructs a computation graph: a CPU input stage (preprocess
// shards feeding IteratorGetNext) and the model's compute chain on
// cfg.Device, followed by backward and per-variable update ops when
// training. The graph is not yet partitioned; callers run graph.Partition
// to obtain per-device subgraphs with Send/Recv pairs.
func (s *Spec) Build(cfg BuildConfig) (*graph.Graph, error) {
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("models: batch must be positive, got %d", cfg.Batch)
	}
	if cfg.PreprocShards == 0 {
		cfg.PreprocShards = 32
		if cfg.Batch < cfg.PreprocShards {
			cfg.PreprocShards = cfg.Batch
		}
	}
	if cfg.PerImageCPU == 0 {
		if s.SeqLen > 0 {
			cfg.PerImageCPU = 2 * time.Millisecond // tokenization is cheap
		} else {
			cfg.PerImageCPU = DefaultPerImageCPU(s.InputH, s.InputW)
		}
	}

	mode := "infer"
	if cfg.Training {
		mode = "train"
	}
	g := graph.New(fmt.Sprintf("%s-%s-bs%d", s.Name, mode, cfg.Batch))
	batch := int64(cfg.Batch)

	// Input stage: shards of the batch preprocessed in parallel on CPU.
	iterator := &graph.Node{
		Name:        "IteratorGetNext",
		Op:          graph.OpIteratorGetNext,
		Device:      device.CPUID,
		OutputBytes: s.InputBytes() * batch,
	}
	perShard := (cfg.Batch + cfg.PreprocShards - 1) / cfg.PreprocShards
	var shards []*graph.Node
	for i := 0; i < cfg.PreprocShards; i++ {
		images := perShard
		if rem := cfg.Batch - i*perShard; rem < images {
			images = rem
		}
		if images <= 0 {
			break
		}
		shards = append(shards, g.AddNode(&graph.Node{
			Name:        fmt.Sprintf("preprocess_%d", i),
			Op:          graph.OpPreprocess,
			Device:      device.CPUID,
			CPUTime:     sim.Nanos(float64(images) * float64(cfg.PerImageCPU)),
			OutputBytes: s.InputBytes() * int64(images),
		}))
	}
	g.AddNode(iterator)
	for _, shard := range shards {
		g.Connect(shard, iterator)
	}

	// Forward chain on the compute device.
	prev := iterator
	var forward []*graph.Node
	for _, l := range s.Layers {
		n := g.AddNode(&graph.Node{
			Name:        l.Name,
			Op:          opForKind(l.Kind),
			Device:      cfg.Device,
			FLOPs:       l.FLOPs * float64(batch),
			MemBytes:    2*l.ActBytes*batch + l.Params*4,
			OutputBytes: l.ActBytes * batch,
			ParamBytes:  l.Params * 4,
			WeightVars:  l.Vars,
		})
		g.Connect(prev, n)
		prev = n
		forward = append(forward, n)
	}

	if !cfg.Training {
		if cfg.Fuse {
			graph.FuseElementwise(g)
		}
		return g, g.Validate()
	}

	// Loss, backward chain (2x forward work per layer), and per-variable
	// updates feeding a final train step barrier.
	loss := g.AddNode(&graph.Node{
		Name:        "loss",
		Op:          graph.OpLoss,
		Device:      cfg.Device,
		FLOPs:       float64(10*s.Classes) * float64(batch),
		MemBytes:    int64(s.Classes) * 4 * batch,
		OutputBytes: 4,
	})
	g.Connect(prev, loss)
	prev = loss

	step := &graph.Node{Name: "train_step", Op: graph.OpNoOp, Device: cfg.Device}
	for i := len(forward) - 1; i >= 0; i-- {
		fwd := forward[i]
		grad := g.AddNode(&graph.Node{
			Name:        "grad_" + fwd.Name,
			Op:          graph.OpGradient,
			Device:      cfg.Device,
			FLOPs:       2 * fwd.FLOPs,
			MemBytes:    2 * fwd.MemBytes,
			OutputBytes: fwd.OutputBytes,
		})
		g.Connect(prev, grad)
		prev = grad
		if fwd.ParamBytes > 0 {
			apply := g.AddNode(&graph.Node{
				Name:     "apply_" + fwd.Name,
				Op:       graph.OpApplyGradient,
				Device:   cfg.Device,
				FLOPs:    float64(fwd.ParamBytes / 4 * 4), // read+madd per weight
				MemBytes: 3 * fwd.ParamBytes,              // grad + weight + slot
			})
			g.Connect(grad, apply)
			g.Connect(apply, step)
		}
	}
	g.AddNode(step)
	g.Connect(prev, step)
	if cfg.Fuse {
		graph.FuseElementwise(g)
	}
	return g, g.Validate()
}

func opForKind(k LayerKind) graph.OpType {
	switch k {
	case LConv:
		return graph.OpConv2D
	case LDepthwiseConv:
		return graph.OpDepthwiseConv2D
	case LDense:
		return graph.OpDense
	case LBatchNorm:
		return graph.OpBatchNorm
	case LActivation:
		return graph.OpActivation
	case LPool:
		return graph.OpPool
	case LAdd:
		return graph.OpAdd
	case LConcat:
		return graph.OpConcat
	case LSoftmax:
		return graph.OpSoftmax
	case LEmbedding:
		return graph.OpEmbedding
	case LLSTMCell:
		return graph.OpLSTMCell
	case LAttention:
		return graph.OpAttention
	default:
		return graph.OpNoOp
	}
}
