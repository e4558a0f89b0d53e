package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"switchflow/internal/cluster"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/experiments"
	"switchflow/internal/fault"
	"switchflow/internal/metrics"
	"switchflow/internal/models"
	"switchflow/internal/sim"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// benchWorkload is one named input set. Each stresses different layers,
// so an optimisation of one layer has a workload that exercises it and
// one that bypasses it (README.md gives the predictions per layer).
type benchWorkload struct {
	name string
	why  string
	// horizon is the simulated length of one rep, sized so a rep takes a
	// few host seconds; quick is the horizon under -quick.
	horizon, quick time.Duration
	build          func(seed int64, horizon time.Duration) (*world, error)
}

var benchWorkloads = []benchWorkload{
	{
		name:    "corun-train",
		why:     "two trainers and one preemption: nearly all host time is the per-kernel path (sim, device, threadpool, executor)",
		horizon: 20 * time.Minute, quick: 5 * time.Second,
		build: buildCorunTrain,
	},
	{
		name:    "serve-preempt",
		why:     "open-loop serving preempts training on every request: core preempt/resume and the serving ledger run per request",
		horizon: 10 * time.Minute, quick: 15 * time.Second,
		build: buildServePreempt,
	},
	{
		name:    "fleet-flash",
		why:     "8-node fleet with traffic, routing, autoscaling and epoch barriers: the only workload with cluster and traffic work",
		horizon: 30 * time.Second, quick: 2 * time.Second,
		build: buildFleetFlash,
	},
	{
		name:    "gang-fault",
		why:     "whole-gang preemptions, priced all-reduce, vnode healing after a device loss and checkpoints on one NVLink server",
		horizon: 4 * time.Minute, quick: 15 * time.Second,
		build: buildGangFault,
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// world is one built simulation, stopped before its first event.
type world struct {
	horizon time.Duration
	// advance runs the simulation up to virtual time t.
	advance  func(t time.Duration)
	engines  []*sim.Engine
	machines []*device.Machine
	managers []*core.Manager
	training []*workload.Job
	services []service
	// fe and scaler are set on the fleet only; offered counts the arrivals
	// an independent copy of the fleet's traffic generator produces over
	// the windows the front-end routed.
	fe      *cluster.Frontend
	scaler  *cluster.Autoscaler
	offered func() (int, error)
	// err records a failure inside a simulation callback (a job admitted
	// mid-run that the manager refused).
	err error
}

// service is one serving job as clients see it: one job, or a fleet
// tenant's replicas plus the requests the router dropped for want of a
// live replica (counted as offered and shed, as cluster.Service does).
type service struct {
	name    string
	jobs    []*workload.Job
	dropped int
}

func (s service) counters() metrics.ServingCounters {
	var sum metrics.ServingCounters
	for _, j := range s.jobs {
		sum.Add(j.ServingStats())
	}
	sum.Offered += s.dropped
	sum.Shed += s.dropped
	return sum
}

func (s service) outstanding() int {
	n := 0
	for _, j := range s.jobs {
		n += j.OutstandingRequests()
	}
	return n
}

// simResult is every simulated statistic of one rep. All of it derives
// from virtual time and counts, so it is identical in every rep of one
// workload and seed; its digest is the rep-to-rep correctness gate.
type simResult struct {
	Kernels         uint64  `json:"kernels"`
	Events          uint64  `json:"events"`
	Preemptions     int     `json:"preemptions"`
	TrainImgPerS    float64 `json:"train_img_per_s"`
	ServeP99MS      float64 `json:"serve_p99_ms"`
	ServeSamples    int     `json:"serve_samples"`
	PreemptP50MS    float64 `json:"preempt_p50_ms"`
	PreemptP99MS    float64 `json:"preempt_p99_ms"`
	PreemptSamples  int     `json:"preempt_samples"`
	SLOAttainPct    float64 `json:"slo_attain_pct"`
	FailPct         float64 `json:"fail_pct"`
	RecoveryP95MS   float64 `json:"recovery_p95_ms"`
	RecoverySamples int     `json:"recovery_samples"`
	Routed          int     `json:"routed"`
	Dropped         int     `json:"dropped"`
	ScaleOuts       int     `json:"scale_outs"`
	ScaleIns        int     `json:"scale_ins"`
	Iterations      []int   `json:"iterations"`
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// collect reads the simulated statistics through the layers' getters.
func (w *world) collect() simResult {
	var r simResult
	for _, e := range w.engines {
		r.Events += e.Fired()
	}
	for _, m := range w.machines {
		for _, g := range m.GPUs {
			r.Kernels += g.Launched()
		}
	}
	for _, m := range w.managers {
		r.Preemptions += m.Preemptions
		r.PreemptSamples += m.PreemptionLatencies.Count()
		r.PreemptP50MS = max(r.PreemptP50MS, ms(m.PreemptionLatencies.Percentile(50)))
		r.PreemptP99MS = max(r.PreemptP99MS, ms(m.PreemptionLatencies.Percentile(99)))
		r.RecoverySamples += m.RecoveryLatencies.Count()
		r.RecoveryP95MS = max(r.RecoveryP95MS, ms(m.RecoveryLatencies.Percentile(95)))
	}
	img := 0
	for _, j := range w.training {
		img += j.Iterations * j.Cfg.Batch
		r.Iterations = append(r.Iterations, j.Iterations)
	}
	r.TrainImgPerS = float64(img) / w.horizon.Seconds()

	var offered, met, shed int
	jobs := len(w.training)
	for _, s := range w.serviceList() {
		c := s.counters()
		offered += c.Offered
		met += c.SLOMet
		shed += c.Shed
		for _, j := range s.jobs {
			jobs++
			r.Iterations = append(r.Iterations, j.Iterations)
			if n := j.Latencies.Count(); n > 0 && ms(j.Latencies.Percentile(99)) > r.ServeP99MS {
				r.ServeP99MS = ms(j.Latencies.Percentile(99))
				r.ServeSamples = n
			}
		}
	}
	if offered > 0 {
		r.SLOAttainPct = 100 * float64(met) / float64(offered)
	}
	// Jobs lost would count as failures too, but a crash fails the
	// correctness gate, so a reported rep has none.
	r.FailPct = 100 * float64(shed) / float64(offered+jobs)
	if w.fe != nil {
		r.Routed, r.Dropped = w.fe.Routed(), w.fe.Dropped()
		r.ScaleOuts, r.ScaleIns = w.scaler.ScaleOuts(), w.scaler.ScaleIns()
	}
	return r
}

// serviceList returns the world's services. A fleet's replica sets
// change as it runs, so its services are read from the front-end.
func (w *world) serviceList() []service {
	if w.fe == nil {
		return w.services
	}
	var out []service
	for _, svc := range w.fe.Services() {
		s := service{name: svc.Tenant().ID, dropped: svc.Dropped()}
		for _, h := range svc.Replicas() {
			if h.Job != nil {
				s.jobs = append(s.jobs, h.Job)
			}
		}
		out = append(out, s)
	}
	return out
}

func (w *world) allJobs() []*workload.Job {
	jobs := append([]*workload.Job(nil), w.training...)
	for _, s := range w.serviceList() {
		jobs = append(jobs, s.jobs...)
	}
	return jobs
}

// verify is the simulated half of the correctness gate: no job crashed,
// no serving backlog grew past 1% of what was offered, and on the fleet
// the router and every tenant's ledger balance.
func (w *world) verify() error {
	if w.err != nil {
		return w.err
	}
	for _, j := range w.allJobs() {
		if j.Crashed() {
			return fmt.Errorf("job %s crashed: %v", j.Cfg.Name, j.CrashErr)
		}
	}
	offered, outstanding := 0, 0
	for _, s := range w.serviceList() {
		c := s.counters()
		out := s.outstanding()
		if c.Served+c.Shed+out != c.Offered {
			return fmt.Errorf("service %s: served %d + shed %d + in flight %d != offered %d",
				s.name, c.Served, c.Shed, out, c.Offered)
		}
		offered += c.Offered
		outstanding += out
	}
	// Summed over services: a small fleet tenant always has a request or
	// two in service at the horizon, which is no backlog.
	if 100*outstanding > offered {
		return fmt.Errorf("%d of %d offered requests still outstanding", outstanding, offered)
	}
	if w.fe != nil {
		generated, err := w.offered()
		if err != nil {
			return err
		}
		if w.fe.Routed()+w.fe.Dropped() != generated {
			return fmt.Errorf("router: routed %d + dropped %d != offered %d", w.fe.Routed(), w.fe.Dropped(), generated)
		}
	}
	return nil
}

// deriveSeed gives each workload its own stream from the -seed flag, so
// one flag reseeds every arrival and traffic process and no two
// workloads share draws. It never returns 0, which workload.Config
// reads as "seed from the context id".
func deriveSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	if s := int64(h.Sum64() >> 1); s != 0 {
		return s
	}
	return 1
}

func specs(names ...string) ([]*models.Spec, error) {
	out := make([]*models.Spec, len(names))
	for i, n := range names {
		s, err := models.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// buildCorunTrain is Figure 7(e)'s shape: VGG16 trains on the RTX 2080 Ti
// until ResNet50 arrives at t=1s with higher priority, preempts it, and
// VGG16 migrates to the V100.
func buildCorunTrain(_ int64, horizon time.Duration) (*world, error) {
	m, err := specs("VGG16", "ResNet50")
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100, device.ClassRTX2080Ti)
	mgr := core.NewManager(eng, machine, core.Options{})
	low, err := mgr.AddJob(workload.Config{
		Name: "vgg16", Model: m[0], Batch: 32, Kind: workload.KindTraining, Priority: 1,
		Device: device.GPUID(1), Fallbacks: []device.ID{device.GPUID(0), device.CPUID},
	})
	if err != nil {
		return nil, err
	}
	w := &world{
		horizon: horizon, engines: []*sim.Engine{eng}, machines: []*device.Machine{machine},
		managers: []*core.Manager{mgr}, training: []*workload.Job{low},
		advance: eng.RunUntil,
	}
	eng.Schedule(time.Second, func() {
		high, err := mgr.AddJob(workload.Config{
			Name: "resnet50", Model: m[1], Batch: 32, Kind: workload.KindTraining, Priority: 2,
			Device: device.GPUID(1),
		})
		if err != nil {
			w.err = err
			return
		}
		w.training = append(w.training, high)
	})
	return w, nil
}

// buildServePreempt is §5.2's setting: ResNet50 single-image serving with
// Poisson arrivals preempts VGG16 training on one V100.
func buildServePreempt(seed int64, horizon time.Duration) (*world, error) {
	m, err := specs("VGG16", "ResNet50")
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100)
	mgr := core.NewManager(eng, machine, core.Options{})
	train, err := mgr.AddJob(workload.Config{
		Name: "vgg16", Model: m[0], Batch: 32, Kind: workload.KindTraining, Priority: 1,
		Device: device.GPUID(0),
	})
	if err != nil {
		return nil, err
	}
	serve, err := mgr.AddJob(workload.Config{
		Name: "resnet50-serve", Model: m[1], Batch: 1, Kind: workload.KindServing, Priority: 2,
		Device:       device.GPUID(0),
		ArrivalEvery: 40 * time.Millisecond, PoissonArrivals: true,
		ArrivalSeed: deriveSeed(seed, "serve-preempt"),
		PerImageCPU: 10 * time.Millisecond, SLO: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	return &world{
		horizon: horizon, engines: []*sim.Engine{eng}, machines: []*device.Machine{machine},
		managers: []*core.Manager{mgr}, training: []*workload.Job{train},
		services: []service{{name: serve.Cfg.Name, jobs: []*workload.Job{serve}}},
		advance:  eng.RunUntil,
	}, nil
}

const fleetNodes = 8

// buildFleetFlash is the `swbench -exp fleet` autoscaled consistent-hash
// arm with the traffic seed taken from -seed: a million clients over 12
// Zipf tenants with a diurnal curve and a 6x flash crowd, and two
// elastic trainers on the last two nodes that yield vnodes to serving.
func buildFleetFlash(seed int64, horizon time.Duration) (*world, error) {
	m, err := specs("ResNet50", "InceptionV3")
	if err != nil {
		return nil, err
	}
	c := cluster.New(cluster.Collocate{}, fleetNodes, device.ClassV100, device.ClassV100)
	profile := experiments.FleetProfile(horizon, 1_000_000)
	profile.Seed = deriveSeed(seed, "fleet-flash")
	gen, err := traffic.NewGenerator(profile)
	if err != nil {
		return nil, err
	}
	fe, err := cluster.NewFrontend(c, gen, cluster.RouteHash, nil)
	if err != nil {
		return nil, err
	}
	scaler := fe.EnableAutoscaler(cluster.AutoscaleConfig{IdleRPS: 40, MaxReplicas: 4})
	w := &world{horizon: horizon, advance: c.RunUntil, fe: fe, scaler: scaler}
	nodes := c.Nodes()
	for i, spec := range m {
		n := nodes[len(nodes)-1-i]
		job, err := n.Manager().AddJob(workload.Config{
			Name: "train-" + spec.Name, Model: spec, Batch: 32, Kind: workload.KindTraining, Priority: 1,
			Device: device.GPUID(0), VNodes: []device.ID{device.GPUID(0), device.GPUID(1)},
		})
		if err != nil {
			return nil, err
		}
		scaler.RegisterElastic(n, job, 1, 2)
		w.training = append(w.training, job)
	}
	for _, n := range nodes {
		w.engines = append(w.engines, n.Engine())
		w.machines = append(w.machines, n.Machine())
		w.managers = append(w.managers, n.Manager())
	}
	fe.Start(1)
	w.offered = func() (int, error) {
		// The front-end draws one epoch ahead: every window (k*e, (k+1)*e]
		// up to one epoch past the last barrier.
		ref, err := traffic.NewGenerator(profile)
		if err != nil {
			return 0, err
		}
		n := 0
		for t := time.Duration(0); t <= c.Now(); t += c.Epoch() {
			n += len(ref.Batch(t, t+c.Epoch()))
		}
		return n, nil
	}
	return w, nil
}

// buildGangFault runs a 2-replica ResNet50 gang on the NVLink island
// {0,1}, an elastic VGG16 job on {2,3} and high-priority MobileNetV2
// serving on gpu:0, with a transient fault on gpu:1 at a third of the
// horizon and gpu:3 lost at half of it.
func buildGangFault(seed int64, horizon time.Duration) (*world, error) {
	m, err := specs("ResNet50", "VGG16", "MobileNetV2")
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	machine := device.NewNVLinkV100Server(eng)
	mgr := core.NewManager(eng, machine, core.Options{CheckpointEvery: 20 * time.Second})
	gpus := func(ids ...int) []device.ID {
		out := make([]device.ID, len(ids))
		for i, id := range ids {
			out[i] = device.GPUID(id)
		}
		return out
	}
	gang, err := mgr.AddJob(workload.Config{
		Name: "gang-resnet50", Model: m[0], Batch: 32, Kind: workload.KindTraining, Priority: 1,
		Device: device.GPUID(0), VNodes: gpus(0, 1), Gang: true,
	})
	if err != nil {
		return nil, err
	}
	elastic, err := mgr.AddJob(workload.Config{
		Name: "elastic-vgg16", Model: m[1], Batch: 32, Kind: workload.KindTraining, Priority: 1,
		Device: device.GPUID(2), VNodes: gpus(2, 3),
	})
	if err != nil {
		return nil, err
	}
	serve, err := mgr.AddJob(workload.Config{
		Name: "mobilenetv2-serve", Model: m[2], Batch: 1, Kind: workload.KindServing, Priority: 9,
		Device:       device.GPUID(0),
		ArrivalEvery: 100 * time.Millisecond, PoissonArrivals: true,
		ArrivalSeed: deriveSeed(seed, "gang-fault"),
		SLO:         200 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	var plan fault.Plan
	plan.Transient(horizon/3, 1).LoseGPU(horizon/2, 3)
	inj := fault.NewInjector(eng, machine, plan)
	inj.Attach(mgr)
	inj.Arm()
	return &world{
		horizon: horizon, engines: []*sim.Engine{eng}, machines: []*device.Machine{machine},
		managers: []*core.Manager{mgr}, training: []*workload.Job{gang, elastic},
		services: []service{{name: serve.Cfg.Name, jobs: []*workload.Job{serve}}},
		advance:  eng.RunUntil,
	}, nil
}
