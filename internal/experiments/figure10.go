package experiments

import (
	"switchflow/internal/harness"
	"switchflow/internal/workload"
)

// Figure10Row is one bar of Figure 10: the gain of SwitchFlow's executor
// interleaving (invariant 2: CPU executors run freely while another job
// holds the GPU) over session-based time slicing, for *independent* models
// with no input sharing.
type Figure10Row struct {
	Subfigure   string // "a", "b", "c"
	Partner     string // the fixed co-runner
	PartnerMode string // "inference" or "training"
	Model       string
	BaselineSec float64
	SFSec       float64
	ImprovePct  float64
}

// figure10Models is the varying-model axis (inference, BS=128).
var figure10Models = []string{
	"ResNet50", "VGG16", "DenseNet121", "InceptionV3",
	"MobileNet", "MobileNetV2", "NASNetMobile",
}

// figure10Setups are the three subfigures.
var figure10Setups = []struct {
	sub      string
	partner  string
	training bool
}{
	{"a", "VGG16", false},
	{"b", "NASNetLarge", false},
	{"c", "VGG16", true},
}

// Figure10 measures interleaving on the V100; iters is sessions per model.
// Cells run on the parallel harness in the serial sweep order
// (subfigure-major).
func Figure10(iters int) []Figure10Row {
	type cell struct {
		sub      string
		partner  string
		training bool
		model    string
	}
	var cells []cell
	for _, setup := range figure10Setups {
		for _, model := range figure10Models {
			cells = append(cells, cell{setup.sub, setup.partner, setup.training, model})
		}
	}
	return harness.Map(cells, func(c cell) Figure10Row {
		return Figure10Cell(c.sub, c.partner, c.training, c.model, iters)
	})
}

// Figure10Cell runs one cell: model (inference BS=128) co-run with the
// partner under time slicing vs SwitchFlow (independent jobs). A cell in
// which any job crashed is a zero row.
func Figure10Cell(sub, partner string, partnerTrains bool, model string, iters int) Figure10Row {
	const batch = 128
	cfgs := []workload.Config{
		saturatedConfig("measured", model, batch),
		collocatedConfig("partner", partner, partnerTrains, batch),
	}
	mode := "inference"
	if partnerTrains {
		mode = "training"
	}
	row := Figure10Row{Subfigure: sub, Partner: partner, PartnerMode: mode, Model: model}
	if base, sf, gain, ok := versusTimeSlice("V100", cfgs, iters, false); ok {
		row.BaselineSec, row.SFSec, row.ImprovePct = base, sf, gain
	}
	return row
}
