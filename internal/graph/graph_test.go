package graph

import (
	"testing"
	"testing/quick"

	"switchflow/internal/device"
)

func chain(names ...string) (*Graph, []*Node) {
	g := New("chain")
	var nodes []*Node
	for _, name := range names {
		n := g.AddNode(&Node{Name: name, Op: OpNoOp})
		if len(nodes) > 0 {
			g.Connect(nodes[len(nodes)-1], n)
		}
		nodes = append(nodes, n)
	}
	return g, nodes
}

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g, nodes := chain("a", "b", "c")
	for i, n := range nodes {
		if n.ID != i {
			t.Fatalf("node %s ID = %d, want %d", n.Name, n.ID, i)
		}
	}
	if g.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", g.Len())
	}
}

func TestConnectLinksBothDirections(t *testing.T) {
	_, nodes := chain("a", "b")
	a, b := nodes[0], nodes[1]
	if len(a.Outputs()) != 1 || a.Outputs()[0] != b {
		t.Fatal("a.Outputs() missing b")
	}
	if len(b.in) != 1 || b.in[0] != a {
		t.Fatal("b's inputs miss a")
	}
}

func TestTopoOrderChain(t *testing.T) {
	g, nodes := chain("a", "b", "c", "d")
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if order[i] != nodes[i] {
			t.Fatalf("order[%d] = %s, want %s", i, order[i].Name, nodes[i].Name)
		}
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g := New("diamond")
	a := g.AddNode(&Node{Name: "a"})
	b := g.AddNode(&Node{Name: "b"})
	c := g.AddNode(&Node{Name: "c"})
	d := g.AddNode(&Node{Name: "d"})
	g.Connect(a, b)
	g.Connect(a, c)
	g.Connect(b, d)
	g.Connect(c, d)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n.Name] = i
	}
	if pos["a"] != 0 || pos["d"] != 3 {
		t.Fatalf("diamond order %v", pos)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g, nodes := chain("a", "b", "c")
	g.Connect(nodes[2], nodes[0]) // close the loop
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted cyclic graph")
	}
}

func TestValidateAcceptsDAG(t *testing.T) {
	g, _ := chain("a", "b", "c")
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// size is the work a node set carries: the quantities fusion and
// partitioning must conserve.
type size struct {
	flops   float64
	params  int64
	tensors int
}

func sizeOf(nodes []*Node) size {
	var s size
	for _, n := range nodes {
		s.flops += n.FLOPs
		s.params += n.ParamBytes
		s.tensors += nodeWeightVars(n)
	}
	return s
}

// A node with parameters but no WeightVars counts as one weight tensor.
func TestAggregates(t *testing.T) {
	g := New("agg")
	g.AddNode(&Node{Name: "w1", FLOPs: 100, ParamBytes: 400})
	g.AddNode(&Node{Name: "w2", FLOPs: 50, ParamBytes: 600})
	g.AddNode(&Node{Name: "x", FLOPs: 25})
	if got, want := sizeOf(g.Nodes()), (size{flops: 175, params: 1000, tensors: 2}); got != want {
		t.Fatalf("size = %+v, want %+v", got, want)
	}
}

func TestOpTypeStrings(t *testing.T) {
	if OpConv2D.String() != "Conv2D" {
		t.Fatalf("OpConv2D.String() = %q", OpConv2D.String())
	}
	if OpType(999).String() != "OpType(999)" {
		t.Fatalf("unknown op string = %q", OpType(999).String())
	}
}

func TestPartitionSingleDevice(t *testing.T) {
	g, _ := chain("a", "b")
	for _, n := range g.Nodes() {
		n.Device = device.GPUID(0)
	}
	subs, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Fatalf("got %d subgraphs, want 1", len(subs))
	}
	if subs[0].Device != device.GPUID(0) || len(subs[0].Nodes) != 2 {
		t.Fatalf("subgraph = %s with %d nodes", subs[0].Name(), len(subs[0].Nodes))
	}
}

func TestPartitionInsertsSendRecv(t *testing.T) {
	g := New("xdev")
	pre := g.AddNode(&Node{Name: "pre", Op: OpPreprocess, Device: device.CPUID, OutputBytes: 1 << 20})
	conv := g.AddNode(&Node{Name: "conv", Op: OpConv2D, Device: device.GPUID(0)})
	g.Connect(pre, conv)
	subs, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("got %d subgraphs, want 2 (cpu, gpu)", len(subs))
	}
	cpu, gpu := subs[0], subs[1]
	if cpu.Device != device.CPUID || gpu.Device != device.GPUID(0) {
		t.Fatalf("subgraph order %s, %s", cpu.Name(), gpu.Name())
	}
	// CPU side: pre -> send. GPU side: recv -> conv.
	if len(cpu.Nodes) != 2 || cpu.Nodes[1].Op != OpSend {
		t.Fatalf("cpu nodes %v", nodeNames(cpu.Nodes))
	}
	if len(gpu.Nodes) != 2 || gpu.Nodes[0].Op != OpRecv {
		t.Fatalf("gpu nodes %v", nodeNames(gpu.Nodes))
	}
	if cpu.Nodes[1].OutputBytes != 1<<20 || gpu.Nodes[0].OutputBytes != 1<<20 {
		t.Fatal("send/recv did not inherit tensor size")
	}
	// Original direct edge must be gone.
	for _, succ := range pre.Outputs() {
		if succ == conv {
			t.Fatal("direct cross-device edge survived partitioning")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after partition: %v", err)
	}
}

func TestPartitionThreeDevices(t *testing.T) {
	g := New("multi")
	pre := g.AddNode(&Node{Name: "pre", Device: device.CPUID})
	a := g.AddNode(&Node{Name: "a", Device: device.GPUID(0)})
	b := g.AddNode(&Node{Name: "b", Device: device.GPUID(1)})
	g.Connect(pre, a)
	g.Connect(pre, b)
	subs, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("got %d subgraphs, want 3", len(subs))
	}
	wantDevices := []device.ID{device.CPUID, device.GPUID(0), device.GPUID(1)}
	for i, want := range wantDevices {
		if subs[i].Device != want {
			t.Fatalf("subs[%d].Device = %v, want %v", i, subs[i].Device, want)
		}
	}
}

func TestPartitionPreservesParamAccounting(t *testing.T) {
	g := New("params")
	pre := g.AddNode(&Node{Name: "pre", Device: device.CPUID})
	conv := g.AddNode(&Node{Name: "conv", Device: device.GPUID(0), ParamBytes: 1024})
	dense := g.AddNode(&Node{Name: "dense", Device: device.GPUID(0), ParamBytes: 2048})
	g.Connect(pre, conv)
	g.Connect(conv, dense)
	subs, err := Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	gpu := subs[1]
	if got := sizeOf(gpu.Nodes); got.params != 3072 || got.tensors != 2 {
		t.Fatalf("gpu subgraph holds %d param bytes in %d tensors, want 3072 in 2", got.params, got.tensors)
	}
}

// Property: partitioning any random two-device layered DAG yields subgraphs
// that (a) cover every original node exactly once, (b) contain only nodes
// of their own device, and (c) leave the graph acyclic.
func TestPartitionProperty(t *testing.T) {
	prop := func(layerSizes []uint8, placements []bool) bool {
		g := New("prop")
		var prev []*Node
		pi := 0
		place := func() device.ID {
			if pi < len(placements) && placements[pi] {
				pi++
				return device.GPUID(0)
			}
			pi++
			return device.CPUID
		}
		layers := 0
		for _, sz := range layerSizes {
			if layers == 4 {
				break
			}
			width := int(sz%3) + 1
			var cur []*Node
			for i := 0; i < width; i++ {
				n := g.AddNode(&Node{Name: "n", Device: place()})
				for _, p := range prev {
					g.Connect(p, n)
				}
				cur = append(cur, n)
			}
			prev = cur
			layers++
		}
		original := g.Len()
		subs, err := Partition(g)
		if err != nil {
			return false
		}
		seen := 0
		for _, s := range subs {
			for _, n := range s.Nodes {
				if n.Device != s.Device {
					return false
				}
				seen++
			}
		}
		// Every node (original + synthesized) appears in exactly one
		// subgraph, and at least the original count survives.
		if seen != g.Len() || g.Len() < original {
			return false
		}
		return g.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func nodeNames(nodes []*Node) []string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	return names
}
