package control

import (
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"switchflow/internal/obs"
	"switchflow/internal/scenario"
)

// The runner lives in package scenario; these tests drive it through its
// exported API, the same wire types the server decodes.

// elasticScenario is one ResNet50 training job with one virtual node on
// GPU 0 of the two-GPU server, plus the given ops.
func elasticScenario(ops ...scenario.OpRequest) scenario.Scenario {
	return scenario.Scenario{Machine: "2gpu", DurationMillis: 10000,
		Jobs: []scenario.JobRequest{{Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1, VNodes: []int{0}}},
		Ops:  ops}
}

// TestScenarioOps checks each op through the binding it leaves behind.
func TestScenarioOps(t *testing.T) {
	resize := scenario.OpRequest{AtMillis: 2000, Op: "resize", Job: "train", VNodes: 2}
	drain := scenario.OpRequest{AtMillis: 4000, Op: "drain", GPU: 0}
	undrain := scenario.OpRequest{AtMillis: 6000, Op: "undrain", GPU: 0}
	rebind := scenario.OpRequest{AtMillis: 8000, Op: "rebind", Job: "train", VNode: 1, GPU: 0}
	tests := []struct {
		name        string
		ops         []scenario.OpRequest
		wantBinding string
	}{
		{name: "none", wantBinding: "gpu:0(16)"},
		{name: "resize", ops: []scenario.OpRequest{resize}, wantBinding: "gpu:0(7)+gpu:1(9)"},
		{name: "resize then drain", ops: []scenario.OpRequest{resize, drain}, wantBinding: "gpu:1(8)+gpu:1(8)"},
		{name: "undrain then rebind", ops: []scenario.OpRequest{resize, drain, undrain, rebind}, wantBinding: "gpu:1(9)+gpu:0(7)"},
		// Listed out of order: ops run in time order.
		{name: "time order", ops: []scenario.OpRequest{rebind, undrain, drain, resize}, wantBinding: "gpu:1(9)+gpu:0(7)"},
		{name: "resize to current count", ops: []scenario.OpRequest{{AtMillis: 1000, Op: "resize", Job: "train", VNodes: 1}},
			wantBinding: "gpu:0(16)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := scenario.Run(elasticScenario(tt.ops...), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Jobs[0].Binding; got != tt.wantBinding {
				t.Errorf("binding = %q, want %q", got, tt.wantBinding)
			}
		})
	}

	// Without the undrain, GPU 0 is still draining and the rebind fails.
	_, err := scenario.Run(elasticScenario(resize, drain, rebind), nil)
	if err == nil || !strings.Contains(err.Error(), "not placeable") {
		t.Errorf("rebind onto a drained GPU: err = %v", err)
	}
}

func TestScenarioOpErrors(t *testing.T) {
	resize := scenario.OpRequest{AtMillis: 2000, Op: "resize", Job: "train", VNodes: 2}
	twoTrainers := elasticScenario(resize)
	twoTrainers.Jobs = append(twoTrainers.Jobs, twoTrainers.Jobs[0])
	threaded := elasticScenario(scenario.OpRequest{AtMillis: 2000, Op: "drain", GPU: 0})
	threaded.Scheduler = "threaded"
	threaded.Jobs[0].VNodes = nil
	withTraffic := elasticScenario(resize)
	withTraffic.Jobs = append(withTraffic.Jobs, scenario.JobRequest{Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2})
	withTraffic.Traffic = &scenario.TrafficRequest{RPS: 10}
	tests := []struct {
		name    string
		sc      scenario.Scenario
		wantErr string
	}{
		{"ambiguous job", twoTrainers, `resize names job "train", carried by 2 jobs`},
		{"unknown job", elasticScenario(scenario.OpRequest{Op: "rebind", Job: "nope"}), `rebind names job "nope", carried by 0 jobs`},
		{"unknown op", elasticScenario(scenario.OpRequest{Op: "reboot"}), `unknown op "reboot"`},
		{"past the window", elasticScenario(scenario.OpRequest{AtMillis: 10001, Op: "drain"}), "drain at 10.001s is past the 10s window"},
		{"baseline scheduler", threaded, "ops need the switchflow scheduler, not threaded-tf"},
		{"traffic", withTraffic, "ops cannot be combined with traffic"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := scenario.Run(tt.sc, nil)
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestScenarioFaults checks the faults block through its FaultStats.
func TestScenarioFaults(t *testing.T) {
	sc := scenario.Scenario{Machine: "2gpu", DurationMillis: 10000,
		Jobs: []scenario.JobRequest{{Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1, FallbackGPUs: []int{1}}}}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Fatalf("no faults block, yet Faults = %+v", *res.Faults)
	}

	sc.Faults = &scenario.FaultsRequest{LoseGPUs: []scenario.LoseGPURequest{{GPU: 0, AtMillis: 3000}}, CheckpointEveryMillis: 1000}
	if res, err = scenario.Run(sc, nil); err != nil {
		t.Fatal(err)
	}
	st := res.Faults
	if st == nil || st.Injected != 1 || st.DeviceLost != 1 || st.Migrations != 1 || st.JobsLost != 0 {
		t.Fatalf("Faults = %+v, want one device loss survived by one migration", st)
	}
	// One checkpoint per second of the 10 s window, bar the last.
	if st.Checkpoints != 9 {
		t.Errorf("Checkpoints = %d at a 1s interval over 10s, want 9", st.Checkpoints)
	}
	if job := res.Jobs[0]; job.Device != "gpu:1" || job.Crashed {
		t.Errorf("job after the loss: %+v", job)
	}

	sc.Faults = &scenario.FaultsRequest{Seed: 7}
	sc.DurationMillis = 20000
	if res, err = scenario.Run(sc, nil); err != nil {
		t.Fatal(err)
	}
	if res.Faults.Injected == 0 || res.Faults.DeviceLost != 0 {
		t.Errorf("seeded plan Faults = %+v, want transients and stalls only", *res.Faults)
	}

	for _, gpu := range []int{-1, 2} {
		sc.Faults = &scenario.FaultsRequest{LoseGPUs: []scenario.LoseGPURequest{{GPU: gpu, AtMillis: 1000}}}
		if _, err := scenario.Run(sc, nil); err == nil || !strings.Contains(err.Error(), "machine has 2 GPUs") {
			t.Errorf("loss of gpu %d: err = %v", gpu, err)
		}
	}
}

// TestScenarioFixture runs the checked-in faults and ops example.
func TestScenarioFixture(t *testing.T) {
	f, err := os.Open("../../docs/scenarios/faults-ops.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := scenario.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Faults; st == nil || st.DeviceLost != 1 || st.JobsLost != 0 {
		t.Fatalf("Faults = %+v, want one device loss and no lost job", st)
	}
	train, serve := res.Jobs[0], res.Jobs[1]
	if train.Binding != "gpu:1(16)+gpu:0(16)" {
		t.Errorf("train binding = %q after resize, drain, undrain and rebind", train.Binding)
	}
	if serve.Device != "gpu:2" || serve.Served == 0 {
		t.Errorf("serve job did not fail over to gpu:2: %+v", serve)
	}
}

// TestScenarioSaturatedUnderTraffic pins the traffic rule: a saturated
// job has no arrival clock to replace, so it keeps running flat out and
// every arrival goes to the request-driven serve job.
func TestScenarioSaturatedUnderTraffic(t *testing.T) {
	res, err := scenario.Run(scenario.Scenario{Machine: "v100", DurationMillis: 5000,
		Jobs: []scenario.JobRequest{
			{Name: "infer-MobileNetV2", Model: "MobileNetV2", Batch: 8, Saturated: true},
			{Name: "serve-ResNet50", Model: "ResNet50", Batch: 1, Priority: 2, ClosedLoop: true},
		},
		Traffic: &scenario.TrafficRequest{RPS: 100}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	infer, serve := res.Jobs[0], res.Jobs[1]
	if infer.Offered != 0 || infer.Iterations == 0 {
		t.Errorf("saturated job became a tenant: %+v", infer)
	}
	if serve.Offered != res.TrafficOffered || res.TrafficOffered != 498 {
		t.Errorf("serve job offered %d of %d arrivals, want all 498", serve.Offered, res.TrafficOffered)
	}
}

// TestRunScenarioValidates holds a Scenario built in Go to the same
// rules scenario.Parse applies.
func TestRunScenarioValidates(t *testing.T) {
	jobs := []scenario.JobRequest{{Name: "a", Model: "ResNet50", Batch: 8, Train: true}}
	for _, ms := range []float64{0, -3000} {
		_, err := scenario.Run(scenario.Scenario{DurationMillis: ms, Jobs: jobs}, nil)
		if err == nil || !strings.Contains(err.Error(), "durationMillis must be positive") {
			t.Errorf("durationMillis %v: err = %v", ms, err)
		}
	}
	if _, err := scenario.Run(scenario.Scenario{DurationMillis: 1000}, nil); err == nil {
		t.Error("scenario without jobs accepted")
	}
}

// TestMillisRoundTrip checks that a duration stored in a millisecond wire
// field comes back unchanged.
func TestMillisRoundTrip(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, err := scenario.FromMillis("f", scenario.Millis(d)); got != d || err != nil {
			t.Fatalf("scenario.FromMillis(scenario.Millis(%d ns)) = %d ns, %v", d, got, err)
		}
	}
	for d := time.Duration(0); d <= 10*time.Second; d += time.Microsecond {
		check(d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		check(time.Duration(rng.Int63n(1 << 51)))
	}
}

// TestFromMillisRange checks that fromMillis refuses every value a
// time.Duration cannot hold instead of wrapping it.
func TestFromMillisRange(t *testing.T) {
	tests := []struct {
		ms float64
		ok bool
	}{
		{9223372036854, true},
		{-9223372036854, true},
		{9223372036855, false},
		{-9223372036855, false},
		{1e300, false},
		{math.Inf(1), false},
		{math.NaN(), false},
	}
	for _, tt := range tests {
		got, err := scenario.FromMillis("durationMillis", tt.ms)
		if !tt.ok {
			if err == nil || got != 0 || !strings.Contains(err.Error(), "durationMillis") {
				t.Errorf("scenario.FromMillis(%v) = %v, %v; want an error naming the field", tt.ms, got, err)
			}
			continue
		}
		// The largest valid values are off by float rounding only.
		want := time.Duration(tt.ms) * time.Millisecond
		if err != nil || got-want < -time.Microsecond || got-want > time.Microsecond {
			t.Errorf("scenario.FromMillis(%v) = %v, %v; want %v", tt.ms, got, err, want)
		}
	}
}

// TestScenarioMillisOutOfRange checks that every millisecond field of a
// scenario turns a value past time.Duration's range into an error naming
// the field, where it used to wrap and run.
func TestScenarioMillisOutOfRange(t *testing.T) {
	const huge = 9223372036855 // ms: just past the largest duration
	train := scenario.JobRequest{Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1}
	serve := scenario.JobRequest{Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2, ServeEveryMS: 100}
	base := func() scenario.Scenario {
		return scenario.Scenario{Machine: "2gpu", DurationMillis: 1000, Jobs: []scenario.JobRequest{train, serve}}
	}
	tests := []struct {
		field string
		edit  func(*scenario.Scenario)
	}{
		{"durationMillis", func(sc *scenario.Scenario) { sc.DurationMillis = huge }},
		{"atMillis", func(sc *scenario.Scenario) { sc.Ops = []scenario.OpRequest{{AtMillis: huge, Op: "drain"}} }},
		{"loseGpus atMillis", func(sc *scenario.Scenario) {
			sc.Faults = &scenario.FaultsRequest{LoseGPUs: []scenario.LoseGPURequest{{GPU: 1, AtMillis: huge}}}
		}},
		{"checkpointEveryMillis", func(sc *scenario.Scenario) { sc.Faults = &scenario.FaultsRequest{CheckpointEveryMillis: huge} }},
		{"serveEveryMillis", func(sc *scenario.Scenario) { sc.Jobs[1].ServeEveryMS = huge }},
		{"sloMillis", func(sc *scenario.Scenario) { sc.Jobs[1].SLOMillis = -huge }},
		{"batchWaitMillis", func(sc *scenario.Scenario) { sc.Jobs[1].BatchWaitMillis = huge }},
		{"batchWaitMillis", func(sc *scenario.Scenario) {
			bad := serve
			bad.BatchWaitMillis = huge
			sc.Groups = [][]scenario.JobRequest{{bad}}
		}},
		{"diurnalMillis", func(sc *scenario.Scenario) { sc.Traffic = &scenario.TrafficRequest{RPS: 10, DiurnalMillis: huge} }},
		{"startMillis", func(sc *scenario.Scenario) {
			sc.Traffic = &scenario.TrafficRequest{RPS: 10, Spikes: []scenario.SpikeRequest{{StartMillis: huge, Magnitude: 2}}}
		}},
		{"rampMillis", func(sc *scenario.Scenario) {
			sc.Traffic = &scenario.TrafficRequest{RPS: 10, Spikes: []scenario.SpikeRequest{{RampMillis: huge, Magnitude: 2}}}
		}},
		{"holdMillis", func(sc *scenario.Scenario) {
			sc.Traffic = &scenario.TrafficRequest{RPS: 10, Spikes: []scenario.SpikeRequest{{HoldMillis: huge, Magnitude: 2}}}
		}},
		{"decayMillis", func(sc *scenario.Scenario) {
			sc.Traffic = &scenario.TrafficRequest{RPS: 10, Spikes: []scenario.SpikeRequest{{DecayMillis: huge, Magnitude: 2}}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.field, func(t *testing.T) {
			sc := base()
			tt.edit(&sc)
			_, err := scenario.Run(sc, nil)
			if err == nil || !strings.Contains(err.Error(), tt.field+" ") || !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("err = %v, want %s out of range", err, tt.field)
			}
		})
	}

	doc := `{"machine":"2gpu","durationMillis":9223372036855,"jobs":[{"name":"a","model":"ResNet50","batch":8,"train":true}]}`
	if _, err := scenario.Parse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Parse: err = %v, want durationMillis out of range", err)
	}
}

// TestScenarioLargestBatchWait runs a serving job whose batch-wait window
// is the largest a millisecond field accepts. Its timer is due past the
// end of virtual time; it used to wrap into the past and panic on the
// first window it opened.
func TestScenarioLargestBatchWait(t *testing.T) {
	sc := scenario.Scenario{Machine: "v100", DurationMillis: 1000, Jobs: []scenario.JobRequest{{
		Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2,
		ServeEveryMS: 10, SLOMillis: 10, MaxBatch: 4, BatchWaitMillis: 9223372036854,
	}}}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	job := res.Jobs[0]
	if job.Crashed || job.Served == 0 {
		t.Errorf("served %d (crashed=%v), want a live job serving", job.Served, job.Crashed)
	}
}

// A recorder attached through scenario.Run's hook sees the run from its
// first event: an elastic job's admission-time Bind, emitted before the
// clock moves.
func TestRunScenarioObserveSeesAdmission(t *testing.T) {
	rec := obs.NewRecorder(0)
	if _, err := scenario.Run(elasticScenario(), func(bus *obs.Bus) { bus.Subscribe(rec) }); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("the hook's recorder saw no events")
	}
	first := events[0]
	if first.Kind != obs.KindBind || first.Time != 0 || first.Seq != 1 ||
		first.Job != "train" || first.Device != "gpu:0" || first.Count != 0 {
		t.Errorf("first event = %+v, want vnode 0's Bind to gpu:0 at t=0 with Seq 1", first)
	}
}
