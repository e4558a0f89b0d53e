package models

import (
	"math"
	"testing"
)

// Published Keras parameter counts (keras.applications, ImageNet heads).
var kerasParams = map[string]int64{
	"ResNet50":          25_636_712,
	"VGG16":             138_357_544,
	"VGG19":             143_667_240,
	"DenseNet121":       8_062_504,
	"DenseNet169":       14_307_880,
	"InceptionV3":       23_851_784,
	"InceptionResNetV2": 55_873_736,
	"MobileNet":         4_253_864,
	"MobileNetV2":       3_538_984,
	"NASNetLarge":       88_949_818,
	"NASNetMobile":      5_326_716,
}

func TestParamCountsMatchKeras(t *testing.T) {
	for name, want := range kerasParams {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got := spec.ParamCount()
			tolerance := 0.05
			if spec.Approximate {
				tolerance = 0.02 // approximations are calibrated, not derived
			}
			if ratio := math.Abs(float64(got-want)) / float64(want); ratio > tolerance {
				t.Errorf("ParamCount() = %d, Keras %d (off by %.1f%%)",
					got, want, ratio*100)
			}
		})
	}
}

func TestStatefulBytesMatchTable1(t *testing.T) {
	// Table 1 "Stateful Variables (MiB)" = weights + one optimizer slot.
	table1 := map[string]float64{
		"ResNet50":          198.53,
		"VGG16":             1055.58,
		"VGG19":             1096.09,
		"DenseNet121":       64.83,
		"DenseNet169":       108.61,
		"InceptionResNetV2": 426.18,
		"InceptionV3":       182.00,
		"MobileNetV2":       27.25,
	}
	for name, wantMiB := range table1 {
		name, wantMiB := name, wantMiB
		t.Run(name, func(t *testing.T) {
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			gotMiB := float64(spec.StatefulBytes()) / (1 << 20)
			if ratio := gotMiB / wantMiB; ratio < 0.93 || ratio > 1.07 {
				t.Errorf("StatefulBytes = %.2f MiB, Table 1 says %.2f (ratio %.3f)",
					gotMiB, wantMiB, ratio)
			}
		})
	}
}

func TestWeightVarsPlausible(t *testing.T) {
	// Variable counts drive Table 1's per-tensor overhead; check the
	// models whose counts we fitted (see DESIGN.md §3.5).
	tests := []struct {
		model    string
		min, max int
	}{
		{"VGG16", 30, 34},
		{"VGG19", 36, 40},
		{"ResNet50", 260, 330},
		{"DenseNet121", 540, 650},
		{"MobileNetV2", 220, 290},
	}
	for _, tt := range tests {
		spec, err := ByName(tt.model)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.WeightVars(); got < tt.min || got > tt.max {
			t.Errorf("%s WeightVars() = %d, want in [%d, %d]", tt.model, got, tt.min, tt.max)
		}
	}
}

// forwardFLOPs returns s's forward work per image.
func forwardFLOPs(s *Spec) float64 {
	var total float64
	for _, l := range s.Layers {
		total += l.FLOPs
	}
	return total
}

func TestForwardFLOPsPlausible(t *testing.T) {
	// Published forward GFLOPs (2 x MACs) at the standard resolutions.
	tests := []struct {
		model string
		want  float64 // GFLOPs
	}{
		{"ResNet50", 7.7},
		{"VGG16", 30.9},
		{"VGG19", 39.0},
		{"DenseNet121", 5.7},
		{"MobileNetV2", 0.61},
	}
	for _, tt := range tests {
		spec, err := ByName(tt.model)
		if err != nil {
			t.Fatal(err)
		}
		got := forwardFLOPs(spec) / 1e9
		if ratio := got / tt.want; ratio < 0.75 || ratio > 1.3 {
			t.Errorf("%s ForwardFLOPs = %.2f GF, want ~%.2f", tt.model, got, tt.want)
		}
	}
}

func TestModelOrderingSanity(t *testing.T) {
	// Relative intensity must hold: the figures depend on which models are
	// heavy vs light.
	flops := func(name string) float64 {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return forwardFLOPs(spec)
	}
	if !(flops("VGG16") > flops("ResNet50")) {
		t.Error("VGG16 should be heavier than ResNet50")
	}
	if !(flops("ResNet50") > flops("MobileNetV2")) {
		t.Error("ResNet50 should be heavier than MobileNetV2")
	}
	if !(flops("NASNetLarge") > flops("NASNetMobile")*10) {
		t.Error("NASNetLarge should dwarf NASNetMobile")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("AlexNet"); err == nil {
		t.Fatal("ByName(AlexNet) should fail")
	}
}

func TestNamesAndCNNs(t *testing.T) {
	if got := len(Names()); got != 12 {
		t.Fatalf("Names() has %d models, want 12", got)
	}
	// Every model but NMT is an image CNN, with no sequence length.
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if cnn := name != "NMT"; cnn != (spec.SeqLen == 0) {
			t.Errorf("%s has SeqLen %d", name, spec.SeqLen)
		}
	}
}

func TestNMTStructure(t *testing.T) {
	nmt := NMT()
	if nmt.SeqLen != 30 {
		t.Fatalf("NMT SeqLen = %d, want 30", nmt.SeqLen)
	}
	lstm := 0
	for _, l := range nmt.Layers {
		if l.Kind == LLSTMCell {
			lstm++
		}
	}
	// 2 sides x 2 layers x 30 steps.
	if lstm != 120 {
		t.Fatalf("NMT has %d LSTM cell layers, want 120", lstm)
	}
	// Params ~ embeddings (32.8M) + cells (8.4M) + attn + projection (16.4M).
	params := float64(nmt.ParamCount()) / 1e6
	if params < 50 || params > 65 {
		t.Fatalf("NMT params = %.1fM, want 50-65M", params)
	}
}

func TestActivationBytesOrdering(t *testing.T) {
	// NASNetLarge's huge activations are what OOMs 11 GB GPUs in Figure 7.
	nas, _ := ByName("NASNetLarge")
	mob, _ := ByName("MobileNetV2")
	if nas.ActivationBytes() < 2*mob.ActivationBytes() {
		t.Errorf("NASNetLarge activations (%d) should dwarf MobileNetV2 (%d)",
			nas.ActivationBytes(), mob.ActivationBytes())
	}
}

func TestIntermediateBytesTrainingDominates(t *testing.T) {
	spec, _ := ByName("ResNet50")
	train := spec.IntermediateBytes(32, true)
	infer := spec.IntermediateBytes(32, false)
	if train <= infer {
		t.Fatalf("training intermediate (%d) must exceed inference (%d)", train, infer)
	}
	// §5.2.3: weights are <10% of total training memory for large batches.
	if float64(spec.StatefulBytes()) > 0.25*float64(train) {
		t.Errorf("weights (%d) should be small next to intermediate (%d)",
			spec.StatefulBytes(), train)
	}
}
