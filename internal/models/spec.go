// Package models provides the DNN zoo the paper evaluates (§5.1): eleven
// Keras CNNs and one NMT model. Models are described layer by layer with
// forward FLOPs, parameter counts, weight-variable counts, and activation
// sizes; graph builders turn a spec into an inference or training
// computation graph placed across CPU and GPU.
//
// VGG, ResNet, DenseNet and MobileNet builders follow the published
// architectures exactly; Inception and NASNet builders are documented
// structural approximations calibrated to the published parameter counts
// and FLOPs (see DESIGN.md §5).
package models

import (
	"fmt"
	"sort"
)

// FLOPs are counted as 2 x multiply-accumulates throughout.

// Layer describes one logical layer of a model.
type Layer struct {
	// Name labels the layer, e.g. "conv3_2".
	Name string
	// Kind is the layer's operation family (a graph.OpType value; kept as
	// its own type here to avoid exporting graph internals in the zoo).
	Kind LayerKind
	// FLOPs is the forward floating-point work per image (or per sequence
	// for the NMT model).
	FLOPs float64
	// Params is the number of trainable parameters (floats).
	Params int64
	// Vars is the number of weight variables (tensors) the layer owns:
	// 1 for an unbiased conv, 2 for conv+bias or dense, 4 for batch norm.
	// This drives the per-tensor transfer overhead of Table 1.
	Vars int
	// ActBytes is the output activation size per image in bytes (fp32).
	ActBytes int64
}

// LayerKind enumerates the layer families used by the zoo.
type LayerKind int

// Layer kinds.
const (
	LConv LayerKind = iota + 1
	LDepthwiseConv
	LDense
	LBatchNorm
	LActivation
	LPool
	LAdd
	LConcat
	LSoftmax
	LEmbedding
	LLSTMCell
	LAttention
)

// Spec is a complete model description.
type Spec struct {
	// Name is the canonical model name, e.g. "ResNet50".
	Name string
	// InputH, InputW, InputC is the input image shape (ignored for NMT).
	InputH, InputW, InputC int
	// Classes is the classifier output width.
	Classes int
	// Layers in forward order.
	Layers []Layer
	// SeqLen is the sequence length for recurrent models (0 for CNNs).
	SeqLen int
	// Approximate is true for structurally approximated models
	// (Inception, NASNet, NMT) whose totals are calibrated to published
	// numbers rather than derived.
	Approximate bool
}

// ParamCount returns total trainable parameters.
func (s *Spec) ParamCount() int64 {
	var total int64
	for _, l := range s.Layers {
		total += l.Params
	}
	return total
}

// ParamBytes returns the fp32 weight footprint.
func (s *Spec) ParamBytes() int64 { return s.ParamCount() * 4 }

// StatefulBytes returns the cross-iteration state a training job must
// preserve: fp32 weights plus one optimizer slot (SGD momentum). This is
// the "Stateful Variables" column of Table 1.
func (s *Spec) StatefulBytes() int64 { return s.ParamCount() * 8 }

// WeightVars returns the number of weight variables (tensors).
func (s *Spec) WeightVars() int {
	total := 0
	for _, l := range s.Layers {
		total += l.Vars
	}
	return total
}

// ActivationBytes returns the total activation footprint per image, which
// dominates training memory (§5.2.3: intermediate data dwarfs weights).
func (s *Spec) ActivationBytes() int64 {
	var total int64
	for _, l := range s.Layers {
		total += l.ActBytes
	}
	return total
}

// InputBytes returns the fp32 input tensor size per image.
func (s *Spec) InputBytes() int64 {
	if s.SeqLen > 0 {
		return int64(s.SeqLen) * 4 // token ids
	}
	return int64(s.InputH*s.InputW*s.InputC) * 4
}

// layerBuilder accumulates layers with shape tracking for the exact CNNs.
type layerBuilder struct {
	layers  []Layer
	h, w, c int
	idx     int
}

func newBuilder(h, w, c int) *layerBuilder {
	return &layerBuilder{h: h, w: w, c: c}
}

func (b *layerBuilder) name(prefix string) string {
	b.idx++
	return fmt.Sprintf("%s_%d", prefix, b.idx)
}

// conv adds a KxK convolution with the given output channels and stride.
// bias controls whether a bias variable is added (VGG style).
func (b *layerBuilder) conv(cout, k, stride int, bias bool) {
	b.h = ceilDiv(b.h, stride)
	b.w = ceilDiv(b.w, stride)
	macs := float64(k*k*b.c*cout) * float64(b.h*b.w)
	params := int64(k * k * b.c * cout)
	vars := 1
	if bias {
		params += int64(cout)
		vars = 2
	}
	b.layers = append(b.layers, Layer{
		Name:     b.name("conv"),
		Kind:     LConv,
		FLOPs:    2 * macs,
		Params:   params,
		Vars:     vars,
		ActBytes: int64(b.h*b.w*cout) * 4,
	})
	b.c = cout
}

// dwConv adds a depthwise KxK convolution over the current channels.
func (b *layerBuilder) dwConv(k, stride int) {
	b.h = ceilDiv(b.h, stride)
	b.w = ceilDiv(b.w, stride)
	macs := float64(k*k*b.c) * float64(b.h*b.w)
	b.layers = append(b.layers, Layer{
		Name:     b.name("dwconv"),
		Kind:     LDepthwiseConv,
		FLOPs:    2 * macs,
		Params:   int64(k * k * b.c),
		Vars:     1,
		ActBytes: int64(b.h*b.w*b.c) * 4,
	})
}

// bn adds batch normalization over the current channels (4 variables:
// gamma, beta, moving mean, moving variance).
func (b *layerBuilder) bn() {
	b.layers = append(b.layers, Layer{
		Name:     b.name("bn"),
		Kind:     LBatchNorm,
		FLOPs:    4 * float64(b.h*b.w*b.c),
		Params:   int64(4 * b.c),
		Vars:     4,
		ActBytes: int64(b.h*b.w*b.c) * 4,
	})
}

// relu adds an activation.
func (b *layerBuilder) relu() {
	b.layers = append(b.layers, Layer{
		Name:     b.name("relu"),
		Kind:     LActivation,
		FLOPs:    float64(b.h * b.w * b.c),
		ActBytes: int64(b.h*b.w*b.c) * 4,
	})
}

// pool adds a KxK pooling with the given stride.
func (b *layerBuilder) pool(k, stride int) {
	b.h = ceilDiv(b.h, stride)
	b.w = ceilDiv(b.w, stride)
	b.layers = append(b.layers, Layer{
		Name:     b.name("pool"),
		Kind:     LPool,
		FLOPs:    float64(k*k) * float64(b.h*b.w*b.c),
		ActBytes: int64(b.h*b.w*b.c) * 4,
	})
}

// globalPool collapses spatial dims.
func (b *layerBuilder) globalPool() {
	b.layers = append(b.layers, Layer{
		Name:     b.name("gap"),
		Kind:     LPool,
		FLOPs:    float64(b.h * b.w * b.c),
		ActBytes: int64(b.c) * 4,
	})
	b.h, b.w = 1, 1
}

// add models a residual merge.
func (b *layerBuilder) add() {
	b.layers = append(b.layers, Layer{
		Name:     b.name("add"),
		Kind:     LAdd,
		FLOPs:    float64(b.h * b.w * b.c),
		ActBytes: int64(b.h*b.w*b.c) * 4,
	})
}

// concatTo models a channel concatenation growing to cout channels.
func (b *layerBuilder) concatTo(cout int) {
	b.c = cout
	b.layers = append(b.layers, Layer{
		Name:     b.name("concat"),
		Kind:     LConcat,
		ActBytes: int64(b.h*b.w*b.c) * 4,
	})
}

// flattenTo reinterprets the activation as a vector of n features.
func (b *layerBuilder) flattenTo(n int) {
	b.h, b.w, b.c = 1, 1, n
}

// dense adds a fully connected layer (weights + bias).
func (b *layerBuilder) dense(out int) {
	in := b.h * b.w * b.c
	b.layers = append(b.layers, Layer{
		Name:     b.name("fc"),
		Kind:     LDense,
		FLOPs:    2 * float64(in*out),
		Params:   int64(in*out + out),
		Vars:     2,
		ActBytes: int64(out) * 4,
	})
	b.h, b.w, b.c = 1, 1, out
}

// softmax adds the classifier head activation.
func (b *layerBuilder) softmax() {
	b.layers = append(b.layers, Layer{
		Name:     b.name("softmax"),
		Kind:     LSoftmax,
		FLOPs:    5 * float64(b.c),
		ActBytes: int64(b.c) * 4,
	})
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// sortedNames returns zoo names in stable order, for CLIs and tests.
func sortedNames(m map[string]func() *Spec) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
