package cluster_test

import (
	"slices"
	"testing"
	"time"

	"switchflow/internal/cluster"
	"switchflow/internal/device"
	"switchflow/internal/experiments"
	"switchflow/internal/models"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// TestFleetRingRebuildsTrackLiveSet runs the setup of the fleet
// experiment's autoscaled consistent-hash arm (8 nodes, 12 tenants, a
// flash crowd and a diurnal trough, elastic training on the tail nodes)
// and checks that each tenant's ring is built once when Start first
// routes and then rebuilt exactly once per barrier at which its live
// replica set changed: the scale-outs, scale-ins and placements of the
// run, and at no other barrier.
func TestFleetRingRebuildsTrackLiveSet(t *testing.T) {
	const window = 30 * time.Second
	c := cluster.New(cluster.Collocate{}, 8, device.ClassV100, device.ClassV100)
	gen, err := traffic.NewGenerator(experiments.FleetProfile(window, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := cluster.NewFrontend(c, gen, cluster.RouteHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaler := fe.EnableAutoscaler(cluster.AutoscaleConfig{IdleRPS: 40, MaxReplicas: 4})
	nodes := c.Nodes()
	for i, model := range []string{"ResNet50", "InceptionV3"} {
		spec, err := models.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		n := nodes[len(nodes)-1-i]
		job, err := n.Manager().AddJob(workload.Config{
			Name: "train-" + model, Model: spec, Batch: 32,
			Kind: workload.KindTraining, Priority: 1,
			Device: device.GPUID(0),
			VNodes: []device.ID{device.GPUID(0), device.GPUID(1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		scaler.RegisterElastic(n, job, 1, 2)
	}
	fe.Start(1)

	services := fe.Services()
	liveSet := func(svc *cluster.Service) []*cluster.JobHandle {
		var out []*cluster.JobHandle
		for _, h := range svc.Replicas() {
			if h.Live() {
				out = append(out, h)
			}
		}
		return out
	}
	prev := make([][]*cluster.JobHandle, len(services))
	changes := make([]int, len(services))
	for i, svc := range services {
		prev[i] = liveSet(svc)
		if len(prev[i]) == 0 {
			t.Fatalf("tenant %s has no live replica after Start", svc.Tenant().ID)
		}
	}
	// Registered after the front-end's hook, so it sees the live set the
	// router just routed over.
	c.AtBarrier(func(time.Duration) {
		for i, svc := range services {
			cur := liveSet(svc)
			if !slices.Equal(cur, prev[i]) {
				changes[i]++
			}
			prev[i] = cur
		}
	})
	c.RunUntil(window)

	if scaler.ScaleOuts() == 0 || scaler.ScaleIns() == 0 {
		t.Fatalf("arm did not exercise the ring: %d scale-outs, %d scale-ins",
			scaler.ScaleOuts(), scaler.ScaleIns())
	}
	total := 0
	for i, svc := range services {
		if got, want := svc.RingRebuilds(), changes[i]+1; got != want {
			t.Errorf("tenant %s: %d ring rebuilds, want %d live-set changes + 1",
				svc.Tenant().ID, got, changes[i])
		}
		total += changes[i]
	}
	t.Logf("%d live-set changes over %d tenants", total, len(services))
}
