package experiments

import (
	"fmt"
	"time"

	"switchflow/internal/cluster"
	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// FleetTierStats summarizes one SLO tier of the serving fleet.
type FleetTierStats struct {
	// Tenants in the tier.
	Tenants int
	// Served requests and the share of them inside the tier SLO.
	Served    int
	AttainPct float64
	// WorstP99MS is the highest per-replica P99 latency in the tier
	// (milliseconds), over replicas that served at least one request.
	WorstP99MS float64
}

// FleetRow is one routing arm of the million-user fleet scenario.
type FleetRow struct {
	// Strategy is "hash" or "least-loaded"; Autoscaled tells whether the
	// shed-rate controller ran (the static arm pins the initial replicas).
	Strategy   string
	Autoscaled bool
	// Nodes and Clients describe the scenario scale.
	Nodes   int
	Clients int
	// Offered counts every generated request (routed + dropped); Routed
	// reached a replica, Dropped found no live replica, Shed is everything
	// clients saw fail (router drops + admission sheds + strandings).
	// Requests still in flight when the horizon lands are offered but
	// neither served nor shed.
	Offered int
	Routed  int
	Dropped int
	Shed    int
	// Served counts completed requests; GoodputPS is SLO-met completions
	// per second across the fleet.
	Served    int
	GoodputPS float64
	// Autoscaler actions: serving replica sets out/in, elastic training
	// vnode shrinks/grows. FinalReplicas is the fleet-wide replica count
	// (live or queued) at the horizon.
	ScaleOuts, ScaleIns int
	Shrinks, Grows      int
	FinalReplicas       int
	// MeanPlaceDelayMS averages the placement queue delay over replicas
	// that placed (milliseconds); most place instantly at submit.
	MeanPlaceDelayMS float64
	// Gold, Silver, Bronze break attainment down by tier.
	Gold, Silver, Bronze FleetTierStats
	// TrainImgPS is the background elastic training throughput.
	TrainImgPS float64
}

// Fleet scenario constants: the node count and the traffic shape, sized
// in fractions of the window so reduced test runs keep the same story —
// a compressed diurnal day with a flash crowd landing near the peak.
const (
	fleetNodes    = 8
	fleetSeed     = 97
	fleetTenants  = 12
	fleetBaseRPS  = 360.0
	fleetReplicas = 1 // initial replicas per tenant
)

// FleetProfile is the load shape swbench -exp fleet drives: clients
// aggregate to a fixed base rate (the population scales the per-client
// rate down, so one flag sweeps "how many users" without resizing the
// fleet), shaped by a diurnal sinusoid and a 6x flash crowd at ~0.28 of
// the window, with the diurnal trough after the crowd decays so the
// autoscaler's scale-in shows inside the same run.
func FleetProfile(window time.Duration, clients int) traffic.Profile {
	return traffic.Profile{
		Clients:       clients,
		RPSPerClient:  fleetBaseRPS / float64(clients),
		DiurnalPeriod: window * 4 / 5,
		DiurnalMin:    0.35,
		Spikes: []traffic.Spike{{
			Start:     window * 28 / 100,
			Ramp:      window * 4 / 100,
			Hold:      window * 10 / 100,
			Decay:     window * 5 / 100,
			Magnitude: 6,
		}},
		Tenants: traffic.SyntheticTenants(fleetTenants, fleetSeed),
		Seed:    fleetSeed,
	}
}

// fleetArm is one cell of the comparison.
type fleetArm struct {
	strategy   cluster.RouteStrategy
	autoscaled bool
}

// Fleet runs the million-user serving scenario over an 8-node, 16-GPU
// V100 fleet: a static consistent-hash arm (no autoscaler) against
// autoscaled consistent-hash and least-loaded routing. Each arm owns its
// cluster, so the harness can run them in parallel with byte-identical
// results.
func Fleet(window time.Duration, clients int) []FleetRow {
	arms := []fleetArm{
		{cluster.RouteHash, false},
		{cluster.RouteHash, true},
		{cluster.RouteLeastLoaded, true},
	}
	return harness.Map(arms, func(a fleetArm) FleetRow {
		return fleetOne(a, window, clients)
	})
}

// fleetOne runs one routing arm end to end.
func fleetOne(arm fleetArm, window time.Duration, clients int) FleetRow {
	c := newCluster(fleetNodes, 0, device.ClassV100, device.ClassV100)
	gen := must(traffic.NewGenerator(FleetProfile(window, clients)))
	fe := must(cluster.NewFrontend(c, gen, arm.strategy, nil))

	// Background elastic training on the tail nodes, spanning both GPUs.
	// Added through the node managers directly (virtual-node placements
	// name their own devices, which the cluster policy would rewrite);
	// the autoscaler flexes them between 1 and 2 vnodes around the
	// serving tide.
	var scaler *cluster.Autoscaler
	if arm.autoscaled {
		// IdleRPS sits well under one replica's capacity (hundreds of
		// req/s batched) but above the diurnal trough's per-replica rate,
		// so the fleet consolidates between crowds.
		scaler = fe.EnableAutoscaler(cluster.AutoscaleConfig{
			IdleRPS:     40,
			MaxReplicas: 4,
		})
	}
	nodes := c.Nodes()
	trainModels := []string{"ResNet50", "InceptionV3"}
	var elastics []*workload.Job
	for i, model := range trainModels {
		n := nodes[len(nodes)-1-i]
		job := must(n.Manager().AddJob(workload.Config{
			Name:     fmt.Sprintf("train-%s", model),
			Model:    mustSpec(model),
			Batch:    32,
			Kind:     workload.KindTraining,
			Priority: 1,
			Device:   device.GPUID(0),
			VNodes:   []device.ID{device.GPUID(0), device.GPUID(1)},
		}))
		elastics = append(elastics, job)
		if scaler != nil {
			scaler.RegisterElastic(n, job, 1, 2)
		}
	}

	fe.Start(fleetReplicas)
	c.RunUntil(window)

	row := FleetRow{
		Strategy:   arm.strategy.String(),
		Autoscaled: arm.autoscaled,
		Nodes:      fleetNodes,
		Clients:    clients,
		Routed:     fe.Routed(),
		Dropped:    fe.Dropped(),
		Offered:    fe.Routed() + fe.Dropped(),
	}
	var placeDelay time.Duration
	placedReplicas := 0
	for _, svc := range fe.Services() {
		cnt := svc.Counters()
		row.Shed += cnt.Shed
		row.Served += cnt.Served
		row.GoodputPS += float64(cnt.SLOMet) / window.Seconds()
		row.ScaleOuts += svc.ScaleOuts()
		row.ScaleIns += svc.ScaleIns()

		tier := tierStatsOf(&row, svc.Tenant().Tier)
		tier.Tenants++
		tier.Served += cnt.Served

		for _, h := range svc.Replicas() {
			if d, ok := h.QueueDelay(); ok {
				placeDelay += d
				placedReplicas++
			}
			if !h.Stopped() {
				row.FinalReplicas++
			}
			if h.Job == nil || h.Job.Latencies.Count() == 0 {
				continue
			}
			if p99 := h.Job.Latencies.Percentile(99).Seconds() * 1e3; p99 > tier.WorstP99MS {
				tier.WorstP99MS = p99
			}
		}
	}
	fleetAttainment(fe, &row)
	if placedReplicas > 0 {
		row.MeanPlaceDelayMS = placeDelay.Seconds() * 1e3 / float64(placedReplicas)
	}
	if scaler != nil {
		row.Shrinks = scaler.Shrinks()
		row.Grows = scaler.Grows()
	}
	for _, job := range elastics {
		row.TrainImgPS += float64(job.Iterations*32) / window.Seconds()
	}
	return row
}

// tierStatsOf maps a tier to its row slot.
func tierStatsOf(row *FleetRow, t traffic.Tier) *FleetTierStats {
	switch t {
	case traffic.TierGold:
		return &row.Gold
	case traffic.TierSilver:
		return &row.Silver
	default:
		return &row.Bronze
	}
}

// fleetAttainment fills per-tier attainment from the service counters.
func fleetAttainment(fe *cluster.Frontend, row *FleetRow) {
	var met [3]int
	for _, svc := range fe.Services() {
		met[svc.Tenant().Tier] += svc.Counters().SLOMet
	}
	fill := func(tier *FleetTierStats, slomet int) {
		if tier.Served > 0 {
			tier.AttainPct = 100 * float64(slomet) / float64(tier.Served)
		}
	}
	fill(&row.Gold, met[traffic.TierGold])
	fill(&row.Silver, met[traffic.TierSilver])
	fill(&row.Bronze, met[traffic.TierBronze])
}
