package graph

import (
	"testing"

	"switchflow/internal/device"
)

func convBNReluChain() *Graph {
	g := New("fuse")
	conv := g.AddNode(&Node{Name: "conv", Op: OpConv2D, Device: device.GPUID(0),
		FLOPs: 100, MemBytes: 10, OutputBytes: 5})
	bn := g.AddNode(&Node{Name: "bn", Op: OpBatchNorm, Device: device.GPUID(0),
		FLOPs: 10, MemBytes: 4, ParamBytes: 16, WeightVars: 4, OutputBytes: 5})
	relu := g.AddNode(&Node{Name: "relu", Op: OpActivation, Device: device.GPUID(0),
		FLOPs: 1, MemBytes: 2, OutputBytes: 6})
	next := g.AddNode(&Node{Name: "conv2", Op: OpConv2D, Device: device.GPUID(0), FLOPs: 50})
	g.Connect(conv, bn)
	g.Connect(bn, relu)
	g.Connect(relu, next)
	return g
}

func TestFuseElementwiseMergesChain(t *testing.T) {
	g := convBNReluChain()
	before := sizeOf(g.Nodes())

	fused := FuseElementwise(g)
	if fused != 2 {
		t.Fatalf("fused %d nodes, want 2 (bn, relu)", fused)
	}
	if g.Len() != 2 {
		t.Fatalf("graph has %d nodes after fusion, want 2", g.Len())
	}
	// Conservation: fusion moves work, never loses it.
	if after := sizeOf(g.Nodes()); after != before {
		t.Errorf("size %+v != %+v", after, before)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The fused kernel's output is the last member's output tensor.
	fusedNode := g.Nodes()[0]
	if fusedNode.OutputBytes != 6 {
		t.Errorf("fused OutputBytes = %d, want relu's 6", fusedNode.OutputBytes)
	}
	if len(fusedNode.Outputs()) != 1 || fusedNode.Outputs()[0].Name != "conv2" {
		t.Errorf("fused node not rewired to conv2")
	}
}

func TestFuseSkipsCrossDeviceAndFanOut(t *testing.T) {
	g := New("nofuse")
	conv := g.AddNode(&Node{Name: "conv", Op: OpConv2D, Device: device.GPUID(0), FLOPs: 10})
	cpuRelu := g.AddNode(&Node{Name: "relu", Op: OpActivation, Device: device.CPUID})
	g.Connect(conv, cpuRelu)
	if fused := FuseElementwise(g); fused != 0 {
		t.Fatalf("fused %d across devices", fused)
	}

	g2 := New("fanout")
	conv2 := g2.AddNode(&Node{Name: "conv", Op: OpConv2D, Device: device.GPUID(0), FLOPs: 10})
	reluA := g2.AddNode(&Node{Name: "a", Op: OpActivation, Device: device.GPUID(0)})
	reluB := g2.AddNode(&Node{Name: "b", Op: OpActivation, Device: device.GPUID(0)})
	g2.Connect(conv2, reluA)
	g2.Connect(conv2, reluB)
	if fused := FuseElementwise(g2); fused != 0 {
		t.Fatalf("fused %d despite fan-out producer", fused)
	}
}

func TestFuseLargeModelGraphConserves(t *testing.T) {
	// Build a realistic-size synthetic network and check conservation.
	g := New("big")
	var prev *Node
	for i := 0; i < 50; i++ {
		conv := g.AddNode(&Node{Name: "conv", Op: OpConv2D, Device: device.GPUID(0),
			FLOPs: 1e9, ParamBytes: 1 << 20, WeightVars: 1, OutputBytes: 1 << 16})
		bn := g.AddNode(&Node{Name: "bn", Op: OpBatchNorm, Device: device.GPUID(0),
			FLOPs: 1e6, ParamBytes: 1 << 10, WeightVars: 4, OutputBytes: 1 << 16})
		relu := g.AddNode(&Node{Name: "relu", Op: OpActivation, Device: device.GPUID(0),
			FLOPs: 1e5, OutputBytes: 1 << 16})
		if prev != nil {
			g.Connect(prev, conv)
		}
		g.Connect(conv, bn)
		g.Connect(bn, relu)
		prev = relu
	}
	before := sizeOf(g.Nodes())
	fused := FuseElementwise(g)
	if fused != 100 {
		t.Fatalf("fused %d, want 100 (bn+relu per block)", fused)
	}
	if g.Len() != 50 {
		t.Fatalf("len = %d, want 50", g.Len())
	}
	if sizeOf(g.Nodes()) != before {
		t.Fatal("fusion lost work")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatal(err)
	}
}
