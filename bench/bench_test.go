package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"switchflow/internal/harness"
)

// benchmarkJSON is the root BENCHMARK.json, the benchmark's declared
// workloads and metrics.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMatchesCode keeps BENCHMARK.json and the program's metric
// and workload tables identical.
func TestDeclaredMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(b.Workloads), len(benchWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != benchWorkloads[i].name || w.Why != benchWorkloads[i].why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, benchWorkloads[i].name, benchWorkloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: declared %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, program has %+v", i, m, d)
		}
	}
}

// TestQuick runs every workload and ladder cell at -quick size in this
// process and checks that the correctness gate passes and every declared
// metric is produced.
func TestQuick(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(0)
	prevPar := harness.SetParallelism(0)
	prevRate := runtime.MemProfileRate
	t.Cleanup(func() {
		runtime.GOMAXPROCS(prevProcs)
		harness.SetParallelism(prevPar)
		runtime.MemProfileRate = prevRate
	})
	dir := t.TempDir()
	ladder, err := runLadder(true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir + "/spans.json"); err != nil {
		t.Fatal(err)
	}
	for _, wl := range benchWorkloads {
		roles := []string{rolePlain, roleProfiled}
		if wl.name == "fleet-flash" {
			roles = append(roles, roleParallel)
		}
		reps := make([]repResult, len(roles))
		for i, role := range roles {
			if reps[i], err = runRep(wl, 1, true, role, dir); err != nil {
				t.Fatalf("%s (%s): %v", wl.name, role, err)
			}
		}
		if err := sameDigest(reps); err != nil {
			t.Fatal(err)
		}
		e2e, err := pick(endToEnd, repValues(reps[0]))
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		for _, d := range endToEnd {
			if e2e[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", wl.name, d.name, e2e[d.name].Value)
			}
		}
		if setup, run := hostTimes(reps); !(setup > 0 && run > 0) {
			t.Errorf("%s: envelope setup_s = %v, run_vs_ref = %v, want > 0", wl.name, setup, run)
		}
		if _, err := pick(perLayer, perLayerValues(reps[0], reps[1], ladder)); err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
	}
}

func TestHostTimesTakeEachPositionsFastestRep(t *testing.T) {
	reps := []repResult{
		{BuildS: []float64{2, 1}, BuildRefS: []float64{3, 4}, SliceS: []float64{4, 9}, RoundS: []float64{1, 2}},
		{BuildS: []float64{1, 3}, BuildRefS: []float64{5, 3}, SliceS: []float64{6, 3}, RoundS: []float64{2, 5}},
	}
	setup, run := hostTimes(reps)
	// Builds 1 + 1 over rounds 3 + 3, at the nominal round; slices 4 + 3
	// over rounds 1 + 2.
	if want := 2.0 / 6 * refRoundNominal.Seconds(); setup != want {
		t.Errorf("setup_s = %v, want %v", setup, want)
	}
	if want := 7.0 / 3; run != want {
		t.Errorf("run_vs_ref = %v, want %v", run, want)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
