package experiments

import (
	"fmt"
	"testing"
	"time"

	"switchflow/internal/baseline"
)

// soloHorizon is how long each solo run lasts.
const soloHorizon = 20 * time.Second

// soloSchedulers are every scheduler, and SwitchFlow with invariant 2
// off, by the names the exception table uses. The first is the
// reference every other one is compared with.
var soloSchedulers = []struct {
	name  string
	sched scheduler
}{
	{"switchflow", scheduler{switchFlow: true}},
	{"threaded-tf", scheduler{policy: baseline.ThreadedTF}},
	{"time-slice", timeSlice},
	{"mps", scheduler{policy: baseline.MPS}},
	{"no-free-cpu", coupledCore},
}

// soloWork runs one job alone on gpu under s for the solo horizon and
// returns its completed work: iterations when training, requests served
// when serving. A crashed job did no work.
func soloWork(gpu string, s scheduler, model string, training bool) int {
	w := onGPU(gpu, s)
	cfg := serveConfig("solo", model, 1, 1)
	if training {
		cfg = trainConfig("solo", model, 32, 1)
	}
	job, err := w.add(cfg)
	if err != nil {
		return 0
	}
	w.eng.RunUntil(soloHorizon)
	if job.Crashed() {
		return 0
	}
	if training {
		return job.Iterations
	}
	return job.Latencies.Count()
}

// Why each solo exception differs from SwitchFlow.
const (
	soloTimeSlicePenalty = "time slicing's solo training penalty (EXPERIMENTS.md deviation 7): a session runs its input, then its compute, so a job alone never prefetches its next batch. " +
		"It is exactly invariant 2 off: no-free-cpu does the same work, and solo ResNet50 training on a V100 gives the same stream event for event under both (FuzzTimeSliceMatchesCoupledCore's first seed)"
	soloMPSReservation = "an MPS process reserves its intermediates plus allocator headroom at launch, beyond what the Jetson TX2's 8 GiB holds beside its weights, so it dies at launch"
)

// soloExceptions are the solo cases, by scheduler/gpu/model/mode, whose
// work differs from SwitchFlow's, as "work/SwitchFlow's work", measured
// over the solo horizon. On the Jetson TX2 a batch-32 trainer completes
// 1 to 12 steps in that time, so whole steps hide the time-slicing
// penalty for ResNet50, VGG16 and InceptionV3 there.
var soloExceptions = map[string]struct{ ratio, why string }{
	"time-slice/V100/ResNet50/train":           {"73/116", soloTimeSlicePenalty},
	"time-slice/V100/VGG16/train":              {"29/34", soloTimeSlicePenalty},
	"time-slice/V100/MobileNetV2/train":        {"150/199", soloTimeSlicePenalty},
	"time-slice/V100/InceptionV3/train":        {"50/91", soloTimeSlicePenalty},
	"time-slice/V100/DenseNet121/train":        {"77/127", soloTimeSlicePenalty},
	"time-slice/Jetson TX2/MobileNetV2/train":  {"8/12", soloTimeSlicePenalty},
	"time-slice/Jetson TX2/DenseNet121/train":  {"3/4", soloTimeSlicePenalty},
	"no-free-cpu/V100/ResNet50/train":          {"73/116", soloTimeSlicePenalty},
	"no-free-cpu/V100/VGG16/train":             {"29/34", soloTimeSlicePenalty},
	"no-free-cpu/V100/MobileNetV2/train":       {"150/199", soloTimeSlicePenalty},
	"no-free-cpu/V100/InceptionV3/train":       {"50/91", soloTimeSlicePenalty},
	"no-free-cpu/V100/DenseNet121/train":       {"77/127", soloTimeSlicePenalty},
	"no-free-cpu/Jetson TX2/MobileNetV2/train": {"8/12", soloTimeSlicePenalty},
	"no-free-cpu/Jetson TX2/DenseNet121/train": {"3/4", soloTimeSlicePenalty},
	"mps/Jetson TX2/ResNet50/train":            {"0/3", soloMPSReservation},
	"mps/Jetson TX2/DenseNet121/train":         {"0/4", soloMPSReservation},
}

// TestSoloEquivalence: a job alone on a machine has nothing to compete
// with, so every scheduler should do the same work with it as SwitchFlow
// does. Each case in soloExceptions must differ by its recorded ratio,
// so a stale row fails; every other case must match exactly.
func TestSoloEquivalence(t *testing.T) {
	seen := 0
	for _, gpu := range []string{"V100", "Jetson TX2"} {
		for _, model := range oracleModels {
			for _, training := range []bool{true, false} {
				mode := "serve"
				if training {
					mode = "train"
				}
				ref := soloWork(gpu, soloSchedulers[0].sched, model, training)
				if ref == 0 {
					t.Errorf("%s/%s/%s: SwitchFlow did no work", gpu, model, mode)
				}
				for _, s := range soloSchedulers[1:] {
					key := fmt.Sprintf("%s/%s/%s/%s", s.name, gpu, model, mode)
					got := soloWork(gpu, s.sched, model, training)
					want, ok := soloExceptions[key]
					switch ratio := fmt.Sprintf("%d/%d", got, ref); {
					case ok:
						seen++
						if ratio != want.ratio {
							t.Errorf("%s: work/SwitchFlow's = %s, recorded %s (%s)", key, ratio, want.ratio, want.why)
						}
					case got != ref:
						t.Errorf("%s: work/SwitchFlow's = %s, want equal work", key, ratio)
					}
				}
			}
		}
	}
	if seen != len(soloExceptions) {
		t.Errorf("%d of %d exception rows name a case the test runs", seen, len(soloExceptions))
	}
}
