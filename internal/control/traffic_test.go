package control

import (
	"bytes"
	"testing"
	"time"

	"switchflow/internal/scenario"
)

// The runner lives in package scenario; these tests drive it through its
// exported API, the same wire types the server decodes.

// TestScenarioWithTraffic drives a scenario's serve jobs from the traffic
// block instead of their own clocks and checks the trace is delivered
// through normal admission control, deterministically.
func TestScenarioWithTraffic(t *testing.T) {
	raw := `{
		"machine": "v100",
		"scheduler": "switchflow",
		"durationMillis": 10000,
		"jobs": [
			{"name": "serve-a", "model": "MobileNetV2", "batch": 1, "priority": 2,
			 "sloMillis": 150, "maxBatch": 4, "batchWaitMillis": 2, "closedLoop": true},
			{"name": "serve-b", "model": "ResNet50", "batch": 1, "priority": 2, "gpu": 1},
			{"name": "train", "model": "VGG16", "batch": 16, "train": true, "priority": 1, "gpu": 2}
		],
		"traffic": {
			"rps": 120,
			"clients": 50000,
			"diurnalMillis": 8000,
			"diurnalMin": 0.5,
			"spikes": [
				{"startMillis": 3000, "rampMillis": 500, "holdMillis": 2000,
				 "decayMillis": 1000, "magnitude": 4}
			],
			"seed": 3
		}
	}`
	sc, err := scenario.Parse(bytes.NewBufferString(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrafficOffered == 0 {
		t.Fatal("traffic block generated no arrivals")
	}
	if res.TrafficAdmitted == 0 || res.TrafficAdmitted > res.TrafficOffered {
		t.Fatalf("admitted %d of %d offered", res.TrafficAdmitted, res.TrafficOffered)
	}
	// serve-a's closedLoop is overridden by the traffic block, so both
	// serve jobs should report trace-shaped offered counts (Zipf: the
	// first tenant gets the larger share) and the training job none.
	a, b, train := res.Jobs[0], res.Jobs[1], res.Jobs[2]
	if a.Offered == 0 || b.Offered == 0 {
		t.Fatalf("serve jobs saw no trace arrivals: a=%d b=%d", a.Offered, b.Offered)
	}
	if a.Offered <= b.Offered {
		t.Fatalf("Zipf share inverted: first tenant offered %d, second %d", a.Offered, b.Offered)
	}
	if a.Offered+b.Offered != res.TrafficOffered {
		t.Fatalf("per-job offered %d+%d != trace offered %d", a.Offered, b.Offered, res.TrafficOffered)
	}
	if train.Requests != 0 || train.Iterations == 0 {
		t.Fatalf("training job misbehaved under traffic: %+v", train)
	}

	// Same scenario, same seed: byte-identical outcome.
	again, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.TrafficOffered != res.TrafficOffered || again.TrafficAdmitted != res.TrafficAdmitted ||
		again.Jobs[0].Served != res.Jobs[0].Served || again.Jobs[1].Served != res.Jobs[1].Served {
		t.Fatalf("traffic scenario is not deterministic:\nfirst:  %+v\nsecond: %+v", res, again)
	}
}

// TestTrafficRequestValidation covers the profile builder's error paths.
func TestTrafficRequestValidation(t *testing.T) {
	if _, err := (scenario.TrafficRequest{RPS: 0}).Profile([]string{"a"}); err == nil {
		t.Fatal("zero rps accepted")
	}
	if _, err := (scenario.TrafficRequest{RPS: 10}).Profile(nil); err == nil {
		t.Fatal("traffic with no serve jobs accepted")
	}
	p, err := scenario.TrafficRequest{RPS: 10, DiurnalMillis: 1000, DiurnalMin: 0.5,
		Spikes: []scenario.SpikeRequest{{StartMillis: 100, RampMillis: 10, HoldMillis: 10, DecayMillis: 10, Magnitude: 3}},
	}.Profile([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Clients != 1_000_000 || p.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if len(p.Tenants) != 2 || p.Tenants[0].Weight <= p.Tenants[1].Weight {
		t.Fatalf("tenant shares not Zipf-ordered: %+v", p.Tenants)
	}
	if p.DiurnalPeriod != time.Second || len(p.Spikes) != 1 {
		t.Fatalf("shape fields lost: %+v", p)
	}
}
