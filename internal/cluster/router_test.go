package cluster

import (
	"errors"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// flatProfile is a spike-free constant-rate profile for router tests.
func flatProfile(tenants int, rps float64) traffic.Profile {
	return traffic.Profile{
		Clients:      1000,
		RPSPerClient: rps / 1000,
		Tenants:      traffic.SyntheticTenants(tenants, 5),
		Seed:         11,
	}
}

func TestFrontendRoutesAndServes(t *testing.T) {
	c := New(Collocate{}, 2, device.ClassV100, device.ClassV100)
	c.Record(obs.KindRoute)
	gen, err := traffic.NewGenerator(flatProfile(2, 40))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(c, gen, RouteHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	fe.Start(1)
	c.RunUntil(2 * time.Second)

	if fe.Routed() < 40 {
		t.Fatalf("routed %d requests in 2s at 40 rps", fe.Routed())
	}
	if fe.Dropped() != 0 {
		t.Fatalf("dropped %d with live replicas", fe.Dropped())
	}
	served := 0
	for _, svc := range fe.Services() {
		served += svc.Counters().Served
	}
	if served == 0 {
		t.Fatal("no requests served")
	}
	routes := 0
	for _, e := range c.Events() {
		if e.Kind != obs.KindRoute {
			continue
		}
		routes++
		if e.From != "hash" || e.Count <= 0 || e.Job == "" {
			t.Fatalf("malformed Route event: %+v", e)
		}
	}
	if routes == 0 {
		t.Fatal("no Route events recorded")
	}
}

// TestHashRingStability: adding a replica to the ring must remap only a
// minority of keys and leave the rest stuck to their old replica.
func TestHashRingStability(t *testing.T) {
	mk := func(names ...string) []liveReplica {
		var set []liveReplica
		for _, n := range names {
			set = append(set, liveReplica{h: &JobHandle{Cfg: workload.Config{Name: n}}})
		}
		return set
	}
	two := buildRing(mk("t0/r0", "t0/r1"))
	three := buildRing(mk("t0/r0", "t0/r1", "t0/r2"))

	moved, hits := 0, make([]int, 3)
	const keys = 4096
	for k := 0; k < keys; k++ {
		key := uint64(k) * 0x9e3779b97f4a7c15 // spread sequential ints over the ring
		before := two.lookup(key)
		after := three.lookup(key)
		hits[after]++
		if after != 2 && after != before {
			t.Fatalf("key %d moved between surviving replicas: %d -> %d", k, before, after)
		}
		if after == 2 {
			moved++
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("%d/%d keys moved to the new replica, want a minority (~1/3)", moved, keys)
	}
	for i, h := range hits {
		if h == 0 {
			t.Fatalf("replica %d owns no keys", i)
		}
	}
}

func TestRouterDropsWithoutLiveReplica(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100)
	gen, err := traffic.NewGenerator(flatProfile(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(c, gen, RouteHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	fe.Start(1)
	c.RunUntil(time.Second)
	svc := fe.Services()[0]
	c.Stop(svc.Replicas()[0])
	c.RunUntil(2 * time.Second)

	if svc.Dropped() == 0 {
		t.Fatal("no drops after the only replica was retired")
	}
	cnt := svc.Counters()
	if cnt.Shed < svc.Dropped() {
		t.Fatalf("Shed %d < Dropped %d; router drops must count as shed", cnt.Shed, svc.Dropped())
	}
	if cnt.Offered < cnt.Shed {
		t.Fatalf("Offered %d < Shed %d", cnt.Offered, cnt.Shed)
	}
}

// TestAutoscalerScalesOutOnShedAndInOnIdle drives one tenant through a
// 20x flash crowd on a deliberately unbatched replica: the crowd must add
// replicas (shed-rate signal) and the calm after it must remove them
// (idle signal), with the registered elastic training job shrinking under
// pressure and growing back.
func TestAutoscalerScalesOutOnShedAndInOnIdle(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100, device.ClassV100)
	p := flatProfile(1, 20)
	p.Spikes = []traffic.Spike{{
		Start: 2 * time.Second, Ramp: 400 * time.Millisecond,
		Hold: 4 * time.Second, Decay: 600 * time.Millisecond, Magnitude: 20,
	}}
	gen, err := traffic.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	// Unbatched replicas saturate near 150 req/s, so the 400 req/s crowd
	// sheds hard while the 20 req/s baseline is comfortably idle.
	fe, err := NewFrontend(c, gen, RouteLeastLoaded, func(tn traffic.Tenant) (workload.Config, error) {
		cfg, err := DefaultServiceConfig(tn)
		cfg.MaxBatch = 0
		cfg.BatchWait = 0
		return cfg, err
	})
	if err != nil {
		t.Fatal(err)
	}
	scaler := fe.EnableAutoscaler(AutoscaleConfig{IdleRPS: 50, MaxReplicas: 3})
	train, err := c.nodes[0].mgr.AddJob(workload.Config{
		Name: "train-bg", Model: spec(t, "ResNet50"), Batch: 32,
		Kind: workload.KindTraining, Priority: 1,
		Device: device.GPUID(0),
		VNodes: []device.ID{device.GPUID(0), device.GPUID(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	scaler.RegisterElastic(c.nodes[0], train, 1, 2)

	fe.Start(1)
	c.RunUntil(20 * time.Second)

	if scaler.ScaleOuts() == 0 {
		t.Fatal("flash crowd produced no scale-out")
	}
	if scaler.ScaleIns() == 0 {
		t.Fatal("post-crowd idle produced no scale-in")
	}
	if scaler.Shrinks() == 0 || scaler.Grows() == 0 {
		t.Fatalf("elastic training did not flex: shrinks=%d grows=%d", scaler.Shrinks(), scaler.Grows())
	}
	svc := fe.Services()[0]
	if svc.desired() >= 3 {
		t.Fatalf("tenant still holds %d replicas after the idle tail", svc.desired())
	}
	if train.Binding().Len() != 2 {
		t.Fatalf("elastic training ended at %d vnodes, want grown back to 2", train.Binding().Len())
	}
}

// TestAutoscalerReplacesCrashedReplica: a hot tenant at MaxReplicas
// whose replica crashes has lost serving capacity, so the next
// sustained-hot interval must add a replica even though the crashed
// handle was never stopped.
func TestAutoscalerReplacesCrashedReplica(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100, device.ClassV100)
	gen, err := traffic.NewGenerator(flatProfile(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	// Unbatched replicas saturate near 150 req/s: two shed hard at 600.
	fe, err := NewFrontend(c, gen, RouteLeastLoaded, func(tn traffic.Tenant) (workload.Config, error) {
		cfg, err := DefaultServiceConfig(tn)
		cfg.MaxBatch = 0
		cfg.BatchWait = 0
		return cfg, err
	})
	if err != nil {
		t.Fatal(err)
	}
	scaler := fe.EnableAutoscaler(AutoscaleConfig{MaxReplicas: 2})
	fe.Start(2)
	c.RunUntil(4 * time.Second)
	svc := fe.Services()[0]
	if scaler.ScaleOuts() != 0 || svc.hotFor < 2 {
		t.Fatalf("want a sustained-hot tenant pinned at MaxReplicas: %d scale-outs, hot for %d intervals",
			scaler.ScaleOuts(), svc.hotFor)
	}

	svc.replicas[0].Job.Crash(errors.New("injected crash"))
	c.RunUntil(5200 * time.Millisecond)
	if scaler.ScaleOuts() != 1 {
		t.Fatalf("%d scale-outs after a replica crashed at MaxReplicas, want 1", scaler.ScaleOuts())
	}
	live := 0
	for _, h := range svc.replicas {
		if h.live() {
			live++
		}
	}
	if len(svc.replicas) != 3 || live != 2 {
		t.Fatalf("%d replicas, %d live; want the crashed one replaced (3 submitted, 2 live)", len(svc.replicas), live)
	}
}

// TestScaleInRacingFlashCrowdOnset times a flash crowd to begin at the
// exact tick where a sustained-idle scale-in fires: the interval that
// triggers the scale-in is still fully idle (the crowd starts as it
// closes), so the controller legitimately shrinks into the onset. The
// required behavior is recovery, not prescience: the crowd's shed signal
// must scale the tenant back out, delayed by at least the cooldown set by
// the racing scale-in, and never wedge the controller.
func TestScaleInRacingFlashCrowdOnset(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100, device.ClassV100)
	c.Record(obs.KindScaleIn, obs.KindScaleOut)
	p := flatProfile(1, 20)
	// Ticks land on 5ms barrier strides: baseline at the first barrier,
	// then every controlInterval (1s). The scale-in fires on the
	// sustainDown-th (fifth) idle tick (~5.005s); the crowd starts right
	// there.
	p.Spikes = []traffic.Spike{{
		Start: 5005 * time.Millisecond, Ramp: 100 * time.Millisecond,
		Hold: 2500 * time.Millisecond, Decay: 300 * time.Millisecond, Magnitude: 20,
	}}
	gen, err := traffic.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	// Unbatched replicas saturate near 150 req/s: the 400 req/s crowd
	// sheds hard against the single post-scale-in replica.
	fe, err := NewFrontend(c, gen, RouteLeastLoaded, func(tn traffic.Tenant) (workload.Config, error) {
		cfg, err := DefaultServiceConfig(tn)
		cfg.MaxBatch = 0
		cfg.BatchWait = 0
		return cfg, err
	})
	if err != nil {
		t.Fatal(err)
	}
	scaler := fe.EnableAutoscaler(AutoscaleConfig{IdleRPS: 50, MaxReplicas: 3})
	fe.Start(2)
	c.RunUntil(7500 * time.Millisecond)

	if scaler.ScaleIns() == 0 {
		t.Fatal("sustained idle before the crowd produced no scale-in")
	}
	if scaler.ScaleOuts() == 0 {
		t.Fatal("controller never scaled back out after shrinking into the crowd")
	}
	var inAt, outAt []time.Duration
	for _, e := range c.Events() {
		switch e.Kind {
		case obs.KindScaleIn:
			inAt = append(inAt, e.Time)
		case obs.KindScaleOut:
			outAt = append(outAt, e.Time)
		}
	}
	if len(inAt) == 0 || len(outAt) == 0 {
		t.Fatalf("missing scale events: in=%d out=%d", len(inAt), len(outAt))
	}
	if inAt[0] >= p.Spikes[0].Start+p.Spikes[0].Ramp {
		t.Fatalf("scale-in at %v did not race the crowd onset at %v", inAt[0], p.Spikes[0].Start)
	}
	if gap := outAt[0] - inAt[0]; gap < scaleCooldown {
		t.Fatalf("recovery scale-out at %v only %v after the scale-in at %v; cooldown %v not honored", outAt[0], gap, inAt[0], scaleCooldown)
	}
	if d := fe.Services()[0].desired(); d < 2 {
		t.Fatalf("tenant holds %d replicas at the end of the crowd, want >= 2", d)
	}
}

// TestCooldownBoundaryExactlyAtIntervalEdge pins the boundary semantics
// of the cooldown gate: with scaleCooldown an exact multiple of
// controlInterval,
// every cooldown expiry lands exactly on a tick, and the gate is strict
// (`now < cooldownUntil`), so the tick AT the expiry instant may act.
// Under permanent overload the controller must therefore emit scale-outs
// spaced exactly scaleCooldown apart — an off-by-one (<=) would slip each
// action a full extra interval.
func TestCooldownBoundaryExactlyAtIntervalEdge(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100, device.ClassV100,
		device.ClassV100, device.ClassV100)
	c.Record(obs.KindScaleOut)
	gen, err := traffic.NewGenerator(flatProfile(1, 2000))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(c, gen, RouteLeastLoaded, func(tn traffic.Tenant) (workload.Config, error) {
		cfg, err := DefaultServiceConfig(tn)
		cfg.MaxBatch = 0
		cfg.BatchWait = 0
		return cfg, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if scaleCooldown != 2*controlInterval {
		t.Fatalf("scaleCooldown %v is not 2 control intervals of %v", scaleCooldown, controlInterval)
	}
	fe.EnableAutoscaler(AutoscaleConfig{MaxReplicas: 4})
	fe.Start(1)
	c.RunUntil(6400 * time.Millisecond)

	var outAt []time.Duration
	for _, e := range c.Events() {
		if e.Kind == obs.KindScaleOut {
			outAt = append(outAt, e.Time)
		}
	}
	if len(outAt) < 3 {
		t.Fatalf("sustained overload produced %d scale-outs in 6.4s, want >= 3", len(outAt))
	}
	for i := 1; i < len(outAt); i++ {
		if gap := outAt[i] - outAt[i-1]; gap != scaleCooldown {
			t.Fatalf("scale-outs %d and %d are %v apart, want exactly the %v cooldown (tick at the expiry instant must act)", i-1, i, gap, scaleCooldown)
		}
	}
}

// TestElasticFlexGrowsBackAfterDrainMidCooldown: a service scale-in puts
// the tenant in cooldown, and while that cooldown is pending the managed
// elastic training job is externally resized down (a drain). The elastic
// flex loop is not subject to the per-service cooldown — it must observe
// the shrunken binding on the next tick and grow the job back to max
// before the service's cooldown even expires.
func TestElasticFlexGrowsBackAfterDrainMidCooldown(t *testing.T) {
	c := New(Collocate{}, 1, device.ClassV100, device.ClassV100)
	gen, err := traffic.NewGenerator(flatProfile(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(c, gen, RouteHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaler := fe.EnableAutoscaler(AutoscaleConfig{IdleRPS: 50, MaxReplicas: 3})
	train, err := c.nodes[0].mgr.AddJob(workload.Config{
		Name: "train-bg", Model: spec(t, "ResNet50"), Batch: 32,
		Kind: workload.KindTraining, Priority: 1,
		Device: device.GPUID(0),
		VNodes: []device.ID{device.GPUID(0), device.GPUID(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	scaler.RegisterElastic(c.nodes[0], train, 1, 2)

	// 20 req/s over 2 replicas is idle; sustainDown scales in on the
	// fifth post-baseline tick (~5.005s) and starts the 2s cooldown.
	fe.Start(2)
	c.RunUntil(5200 * time.Millisecond)
	if scaler.ScaleIns() != 1 {
		t.Fatalf("expected the idle scale-in by 5.2s, got %d", scaler.ScaleIns())
	}
	svc := fe.Services()[0]
	if svc.cooldownUntil <= c.Now() {
		t.Fatalf("no pending cooldown after the scale-in (until %v, now %v)", svc.cooldownUntil, c.Now())
	}
	// Drain the elastic job down to one vnode while the cooldown runs.
	if err := c.nodes[0].mgr.Resize(train, 1); err != nil {
		t.Fatal(err)
	}

	// Stop short of the cooldown expiry: the grow must already be done.
	c.RunUntil(svc.cooldownUntil - 100*time.Millisecond)
	if c.Now() >= svc.cooldownUntil {
		t.Fatalf("ran past the cooldown (now %v, until %v); the test no longer isolates mid-cooldown flex", c.Now(), svc.cooldownUntil)
	}
	if scaler.Grows() == 0 {
		t.Fatal("elastic flex did not grow the drained job back during the service cooldown")
	}
	if got := train.Binding().Len(); got != 2 {
		t.Fatalf("elastic job at %d vnodes, want grown back to 2", got)
	}
	if scaler.Shrinks() != 0 {
		t.Fatalf("external drain was miscounted as %d controller shrinks", scaler.Shrinks())
	}
}
