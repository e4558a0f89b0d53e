package experiments

import (
	"strings"

	"switchflow/internal/harness"
	"switchflow/internal/workload"
)

// Figure9Row is one bar of Figure 9: input reuse among *different* CNN
// models on a V100, across batch sizes and collocation degrees.
type Figure9Row struct {
	Models      []string
	Batch       int
	BaselineSec float64
	ReuseSec    float64
	ImprovePct  float64
}

// Label renders the model set compactly.
func (r Figure9Row) Label() string { return strings.Join(r.Models, "+") }

// figure9Sets are the collocated model groups (2, 3, and 4 models).
var figure9Sets = [][]string{
	{"ResNet50", "VGG16"},
	{"ResNet50", "InceptionV3"},
	{"MobileNetV2", "NASNetMobile"},
	{"ResNet50", "VGG16", "InceptionV3"},
	{"ResNet50", "VGG16", "InceptionV3", "DenseNet121"},
}

// figure9Batches are the batch sizes of the two subfigures.
var figure9Batches = []int{32, 64, 128}

// Figure9 measures mixed-model input reuse on the V100 (inference). Cells
// run on the parallel harness in the serial sweep order (batch-major).
func Figure9(iters int) []Figure9Row {
	type cell struct {
		set   []string
		batch int
	}
	var cells []cell
	for _, batch := range figure9Batches {
		for _, set := range figure9Sets {
			cells = append(cells, cell{set, batch})
		}
	}
	return harness.Map(cells, func(c cell) Figure9Row {
		return Figure9Cell(c.set, c.batch, iters)
	})
}

// Figure9Cell runs one (model set, batch) cell. A cell in which any job
// crashed is a zero row.
func Figure9Cell(set []string, batch, iters int) Figure9Row {
	cfgs := make([]workload.Config, len(set))
	for i, model := range set {
		cfgs[i] = saturatedConfig(model, model, batch)
	}
	row := Figure9Row{Models: append([]string(nil), set...), Batch: batch}
	if base, reuse, gain, ok := versusTimeSlice("V100", cfgs, iters, true); ok {
		row.BaselineSec, row.ReuseSec, row.ImprovePct = base, reuse, gain
	}
	return row
}
