// Trace-driven traffic for single-machine runs: the same generator the
// fleet router uses, mapped onto a scenario's serve jobs. Each serve job
// becomes one tenant with a Zipf(1.1) share of the aggregate rate, and
// every arrival is delivered at its exact virtual instant through the
// job's normal admission control.
package scenario

import (
	"fmt"
	"math"
	"time"

	"switchflow"
	"switchflow/internal/traffic"
)

// TrafficRequest is the scenario JSON's "traffic" block: an aggregate
// open-loop request stream spread over the scenario's serve jobs.
type TrafficRequest struct {
	// RPS is the aggregate base request rate across all serve jobs.
	RPS float64 `json:"rps"`
	// Clients is the simulated client population the rate aggregates
	// (cosmetic for delivery, but it keys per-client routing affinity in
	// fleet runs; defaults to 1_000_000).
	Clients int `json:"clients,omitempty"`
	// DiurnalMillis/DiurnalMin shape the compressed-day sinusoid (see
	// traffic.Profile); zero disables it.
	DiurnalMillis float64 `json:"diurnalMillis,omitempty"`
	DiurnalMin    float64 `json:"diurnalMin,omitempty"`
	// Spikes are flash crowds layered on the base rate.
	Spikes []SpikeRequest `json:"spikes,omitempty"`
	// Seed decorrelates arrival streams between runs.
	Seed int64 `json:"seed,omitempty"`
}

// SpikeRequest is one flash crowd in scenario JSON.
type SpikeRequest struct {
	StartMillis float64 `json:"startMillis"`
	RampMillis  float64 `json:"rampMillis"`
	HoldMillis  float64 `json:"holdMillis"`
	DecayMillis float64 `json:"decayMillis"`
	Magnitude   float64 `json:"magnitude"`
}

// Profile converts the request into a traffic.Profile over n tenants
// (one per serve job, Zipf(1.1) shares in listing order).
func (r TrafficRequest) Profile(names []string) (traffic.Profile, error) {
	if r.RPS <= 0 {
		return traffic.Profile{}, fmt.Errorf("scenario: traffic rps must be positive, got %v", r.RPS)
	}
	if len(names) == 0 {
		return traffic.Profile{}, fmt.Errorf("scenario: traffic block needs at least one request-driven serve job")
	}
	clients := r.Clients
	if clients <= 0 {
		clients = 1_000_000
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	tenants := make([]traffic.Tenant, len(names))
	for i, name := range names {
		tenants[i] = traffic.Tenant{
			ID:     name,
			Weight: 1 / math.Pow(float64(i+1), 1.1),
			Seed:   seed + int64(i)*7919,
		}
	}
	var ms millis
	p := traffic.Profile{
		Clients:       clients,
		RPSPerClient:  r.RPS / float64(clients),
		DiurnalPeriod: ms.field("diurnalMillis", r.DiurnalMillis),
		DiurnalMin:    r.DiurnalMin,
		Tenants:       tenants,
		Seed:          seed,
	}
	for _, s := range r.Spikes {
		p.Spikes = append(p.Spikes, traffic.Spike{
			Start:     ms.field("startMillis", s.StartMillis),
			Ramp:      ms.field("rampMillis", s.RampMillis),
			Hold:      ms.field("holdMillis", s.HoldMillis),
			Decay:     ms.field("decayMillis", s.DecayMillis),
			Magnitude: s.Magnitude,
		})
	}
	if ms.err != nil {
		return traffic.Profile{}, fmt.Errorf("scenario: traffic %w", ms.err)
	}
	return p, nil
}

// trafficStride is the generator window for single-machine delivery —
// coarse enough to stay cheap, fine enough that the midpoint-rate
// approximation tracks diurnal curves and spike ramps.
const trafficStride = 100 * time.Millisecond

// driveTraffic delivers the traffic block's arrivals over the window to
// the tenant jobs, one tenant each in listing order, at each arrival's
// exact instant (advancing the simulation between deliveries). It returns
// offered/admitted counts; the remainder was shed at admission.
func driveTraffic(sim *switchflow.Simulation, req TrafficRequest, jobs []*switchflow.Job,
	window time.Duration) (offered, admitted int, err error) {
	names := make([]string, len(jobs))
	for i, job := range jobs {
		names[i] = job.Name()
	}
	p, err := req.Profile(names)
	if err != nil {
		return 0, 0, err
	}
	gen, err := traffic.NewGenerator(p)
	if err != nil {
		return 0, 0, err
	}
	for from := time.Duration(0); from < window; from += trafficStride {
		to := from + trafficStride
		if to > window {
			to = window
		}
		for _, a := range gen.Batch(from, to) {
			sim.RunUntil(a.At)
			offered++
			if jobs[a.Tenant].Offer() {
				admitted++
			}
		}
	}
	sim.RunUntil(window)
	return offered, admitted, nil
}
