// Command swrun runs one collocation scenario and reports per-job
// outcomes. A scenario is a scenario.Scenario: either read from a JSON file
// with -scenario (the results print as JSON), or described by the flags
// below, which are shorthand for one. swrun lowers the flags into a
// Scenario, runs it with scenario.Run, and prints a text report;
// it holds no simulation code of its own. Lowering writes swrun's own
// policies out as job fields (see place and serve).
//
// Jobs are comma-separated specs of the form
//
//	kind:model:batch[:prio][@gpu]
//
// where kind is train, serve (closed loop), or infer (saturated), e.g.
//
//	swrun -machine v100 -sched switchflow \
//	      -jobs train:VGG16:32:1,serve:ResNet50:1:2 -for 30s
//
// The serving flags reshape every serve job: -serve-every switches it to
// an open-loop request stream (optionally Poisson via -poisson and
// -arrival-seed), -slo enables admission control, and -max-batch with
// -batch-wait enables dynamic micro-batching:
//
//	swrun -jobs serve:ResNet50:1:2 -serve-every 10ms -poisson \
//	      -slo 200ms -max-batch 8 -batch-wait 5ms -for 30s
//
// The elastic flags exercise virtual-node placement (SwitchFlow only):
// -vnodes splits every training job across the listed GPUs, -resize
// grows/shrinks a job's virtual-node count mid-run, and -drain vacates a
// GPU administratively so its jobs rebind or migrate:
//
//	swrun -machine 2gpu -jobs train:ResNet50:16:1 -vnodes 0 \
//	      -resize train-ResNet50=2@10s -drain 0@20s -for 60s
//
// The gang flag turns every training job into a synchronous
// data-parallel gang (SwitchFlow only): N replicas on consecutive GPUs
// meet at a topology-priced ring all-reduce every step and are
// preempted or resumed as one unit. The NVLink machine gives the
// all-reduce fast islands to run on:
//
//	swrun -machine nvlink -jobs train:ResNet50:32:1 -gang 2 -for 30s
//
// The traffic flags replace the serve jobs' own arrival clocks with one
// aggregate open-loop trace — a base rate shaped by a diurnal sinusoid
// and flash-crowd spikes, split across the serve jobs by Zipf share in
// listing order (the same generator the fleet experiment uses):
//
//	swrun -jobs serve:ResNet50:1:2,serve:VGG16:1:2 -traffic 200 \
//	      -diurnal 60s/0.35 -spike 6@20s/3s/8s/4s \
//	      -slo 200ms -max-batch 4 -batch-wait 2ms -for 60s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"switchflow"
	"switchflow/internal/scenario"
)

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "swrun:", err)
		os.Exit(1)
	}
}

// options hold swrun's flags; -traffic, -clients and -traffic-seed bind
// straight into the traffic block they describe.
type options struct {
	machine, sched, jobs, file, loseGPU, vnodes, drain, resize, diurnal, spike string
	window, ckptEvery, serveEvery, slo, batchWait                              time.Duration
	faultSeed, arrivalSeed                                                     int64
	maxBatch, gang                                                             int
	poisson                                                                    bool
	traffic                                                                    scenario.TrafficRequest
}

func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.machine, "machine", "v100", "machine: v100, nvlink, 2gpu, tx2, or a GPU name")
	fs.StringVar(&o.sched, "sched", "switchflow", "scheduler: switchflow, threaded, timeslice, mps")
	fs.StringVar(&o.jobs, "jobs", "train:ResNet50:16:1", "comma-separated job specs")
	fs.DurationVar(&o.window, "for", 30*time.Second, "virtual time to run")
	fs.StringVar(&o.file, "scenario", "", "JSON scenario file (overrides the other flags)")
	fs.Int64Var(&o.faultSeed, "fault-seed", 0, "inject a seeded random fault mix (0 = none)")
	fs.StringVar(&o.loseGPU, "lose-gpu", "", "inject a device loss, as gpu@time (e.g. 0@10s)")
	fs.DurationVar(&o.ckptEvery, "checkpoint-every", 0, "SwitchFlow host-checkpoint interval (0 = default)")
	fs.DurationVar(&o.serveEvery, "serve-every", 0, "make serve jobs open-loop with this arrival period (0 = closed loop)")
	fs.BoolVar(&o.poisson, "poisson", false, "draw Poisson inter-arrival times with mean -serve-every")
	fs.Int64Var(&o.arrivalSeed, "arrival-seed", 1, "seed for the -poisson arrival process")
	fs.DurationVar(&o.slo, "slo", 0, "serving latency SLO; admission control sheds beyond it (0 = admit all)")
	fs.IntVar(&o.maxBatch, "max-batch", 0, "fuse up to this many requests per compute launch (0 = no batching)")
	fs.DurationVar(&o.batchWait, "batch-wait", 0, "max wait for a sub-target micro-batch to fill")
	fs.StringVar(&o.vnodes, "vnodes", "", "split training jobs across these GPUs as virtual nodes, e.g. 0,1 (switchflow only)")
	fs.IntVar(&o.gang, "gang", 0, "make training jobs data-parallel gangs of this many replicas; with -vnodes those GPUs are the gang (switchflow only)")
	fs.StringVar(&o.drain, "drain", "", "drain GPUs mid-run, as gpu@time[,gpu@time...] (e.g. 0@20s)")
	fs.StringVar(&o.resize, "resize", "", "resize elastic jobs mid-run, as job=vnodes@time[,...] (e.g. train-ResNet50=2@10s)")
	fs.Float64Var(&o.traffic.RPS, "traffic", 0, "drive serve jobs with an aggregate open-loop trace at this rps (0 = off)")
	fs.IntVar(&o.traffic.Clients, "clients", 1_000_000, "client population the -traffic rate aggregates")
	fs.StringVar(&o.diurnal, "diurnal", "", "-traffic diurnal curve, as period/minFraction (e.g. 60s/0.35)")
	fs.StringVar(&o.spike, "spike", "", "-traffic flash crowds, as mag@start/ramp/hold/decay[,...] (e.g. 6@20s/3s/8s/4s)")
	fs.Int64Var(&o.traffic.Seed, "traffic-seed", 1, "seed for the -traffic arrival streams")
	return o
}

// run prints a -scenario file's result as JSON, or the text report of the
// scenario the flags describe.
func (o *options) run(w io.Writer) error {
	sc, err := o.scenario()
	if err != nil {
		return err
	}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		return err
	}
	if o.file == "" {
		report(w, sc, res)
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func (o *options) scenario() (scenario.Scenario, error) {
	if o.file == "" {
		return o.lower()
	}
	f, err := os.Open(o.file)
	if err != nil {
		return scenario.Scenario{}, err
	}
	defer f.Close()
	return scenario.Parse(f)
}

// lower turns the flags into the Scenario they are shorthand for.
func (o *options) lower() (scenario.Scenario, error) {
	traffic := o.traffic.RPS > 0
	if traffic && o.serveEvery > 0 {
		return scenario.Scenario{}, fmt.Errorf("-traffic and -serve-every are mutually exclusive")
	}
	gpus, err := scenario.GPUCount(o.machine)
	if err != nil {
		return scenario.Scenario{}, err
	}
	sc := scenario.Scenario{Machine: o.machine, Scheduler: o.sched, DurationMillis: scenario.Millis(o.window)}
	if sc.Faults, err = o.faults(); err != nil {
		return scenario.Scenario{}, err
	}
	vnodes, err := parseVNodes(o.vnodes)
	if err != nil {
		return scenario.Scenario{}, err
	}
	for _, one := range strings.Split(o.jobs, ",") {
		req, err := parseJob(strings.TrimSpace(one))
		if err != nil {
			return scenario.Scenario{}, err
		}
		o.serve(&req, traffic)
		o.place(&req, vnodes, gpus, sc.Faults != nil)
		sc.Jobs = append(sc.Jobs, req)
	}
	if sc.Ops, err = o.ops(); err != nil {
		return scenario.Scenario{}, err
	}
	if traffic {
		if err := o.shapeTraffic(); err != nil {
			return scenario.Scenario{}, err
		}
		sc.Traffic = &o.traffic
	}
	return sc, nil
}

// serve applies the serving flags to a serve job; train and infer jobs
// pass through. -serve-every makes the job open-loop; under -traffic the
// trace owns the clock, but the job keeps the batching policy.
func (o *options) serve(req *scenario.JobRequest, traffic bool) {
	if req.Train || req.Saturated {
		return
	}
	if o.serveEvery > 0 {
		req.ClosedLoop = false
		req.ServeEveryMS = scenario.Millis(o.serveEvery)
		req.PoissonArrivals = o.poisson
		if o.poisson {
			req.ArrivalSeed = o.arrivalSeed
		}
	}
	if o.serveEvery > 0 || traffic {
		req.MaxBatch = o.maxBatch
		req.BatchWaitMillis = scenario.Millis(o.batchWait)
	}
	req.SLOMillis = scenario.Millis(o.slo)
}

// place applies the placement flags. -vnodes replaces a training job's
// @gpu and fallbacks with elastic placement; -gang N alone makes it a gang
// of N replicas on consecutive GPUs from its @gpu. Otherwise training jobs
// fall back to every other GPU in index order, then the CPU; under fault
// injection serve jobs get the same GPU fallbacks, so SwitchFlow can
// migrate them off a lost device.
func (o *options) place(req *scenario.JobRequest, vnodes []int, gpus int, faults bool) {
	switch {
	case req.Train && len(vnodes) > 0:
		req.GPU, req.VNodes, req.FallbackCPU = vnodes[0], vnodes, false
		req.Gang = o.gang > 0
	case req.Train && o.gang > 0:
		req.FallbackCPU, req.Gang, req.Replicas = false, true, o.gang
	case req.Train || faults:
		for i := 0; i < gpus; i++ {
			if i != req.GPU {
				req.FallbackGPUs = append(req.FallbackGPUs, i)
			}
		}
	}
}

// faults lowers -fault-seed, -lose-gpu and -checkpoint-every into the
// faults block; nil when no fault was asked for, and then
// -checkpoint-every has nothing to act on.
func (o *options) faults() (*scenario.FaultsRequest, error) {
	if o.faultSeed == 0 && o.loseGPU == "" {
		return nil, nil
	}
	f := &scenario.FaultsRequest{Seed: o.faultSeed, CheckpointEveryMillis: scenario.Millis(max(o.ckptEvery, 0))}
	if o.loseGPU != "" {
		gpuStr, at, ok := parseAt(o.loseGPU)
		gpu, err := strconv.Atoi(gpuStr)
		if !ok || err != nil {
			return nil, fmt.Errorf("-lose-gpu %q: want gpu@time, e.g. 0@10s", o.loseGPU)
		}
		f.LoseGPUs = []scenario.LoseGPURequest{{GPU: gpu, AtMillis: scenario.Millis(at)}}
	}
	return f, nil
}

// ops lowers -drain ("gpu@time,...") and -resize ("job=vnodes@time,...")
// into timed ops, drains first.
func (o *options) ops() ([]scenario.OpRequest, error) {
	var ops []scenario.OpRequest
	for _, one := range list(o.drain) {
		gpuStr, at, ok := parseAt(strings.TrimSpace(one))
		gpu, err := strconv.Atoi(gpuStr)
		if !ok || err != nil {
			return nil, fmt.Errorf("-drain %q: want gpu@time, e.g. 0@20s", one)
		}
		ops = append(ops, scenario.OpRequest{AtMillis: scenario.Millis(at), Op: "drain", GPU: gpu})
	}
	for _, one := range list(o.resize) {
		what, at, ok := parseAt(strings.TrimSpace(one))
		name, nStr, _ := strings.Cut(what, "=")
		n, err := strconv.Atoi(nStr)
		if !ok || err != nil {
			return nil, fmt.Errorf("-resize %q: want job=vnodes@time, e.g. train-ResNet50=2@10s", one)
		}
		ops = append(ops, scenario.OpRequest{AtMillis: scenario.Millis(at), Op: "resize", Job: name, VNodes: n})
	}
	return ops, nil
}

// shapeTraffic parses -diurnal and -spike into the traffic block.
func (o *options) shapeTraffic() error {
	t := &o.traffic
	if o.diurnal != "" {
		periodStr, minStr, _ := strings.Cut(o.diurnal, "/")
		period, err := time.ParseDuration(periodStr)
		minFrac, minErr := strconv.ParseFloat(minStr, 64)
		if err != nil || minErr != nil {
			return fmt.Errorf("-diurnal %q: want period/minFraction, e.g. 60s/0.35", o.diurnal)
		}
		t.DiurnalMillis, t.DiurnalMin = scenario.Millis(period), minFrac
	}
	for _, one := range strings.Split(o.spike, ",") {
		if one = strings.TrimSpace(one); one == "" {
			continue
		}
		var sp scenario.SpikeRequest
		ms := []*float64{&sp.StartMillis, &sp.RampMillis, &sp.HoldMillis, &sp.DecayMillis}
		magStr, rest, _ := strings.Cut(one, "@")
		parts := strings.Split(rest, "/")
		var err error
		if sp.Magnitude, err = strconv.ParseFloat(magStr, 64); err != nil || len(parts) != len(ms) {
			return fmt.Errorf("-spike %q: want mag@start/ramp/hold/decay, e.g. 6@20s/3s/8s/4s", one)
		}
		for i, p := range parts {
			d, err := time.ParseDuration(p)
			if err != nil {
				return fmt.Errorf("-spike %q: bad duration %q: %v", one, p, err)
			}
			*ms[i] = scenario.Millis(d)
		}
		t.Spikes = append(t.Spikes, sp)
	}
	return nil
}

// list splits a comma-separated flag value; empty means none.
func list(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// parseAt splits a what@time flag value; ok is false when it is malformed.
func parseAt(s string) (string, time.Duration, bool) {
	what, atStr, ok := strings.Cut(s, "@")
	at, err := time.ParseDuration(atStr)
	return what, at, ok && err == nil
}

// parseVNodes parses the -vnodes GPU list ("0,1" → [0, 1]).
func parseVNodes(s string) ([]int, error) {
	var gpus []int
	for _, part := range list(s) {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-vnodes %q: bad gpu index %q", s, part)
		}
		gpus = append(gpus, n)
	}
	return gpus, nil
}

// parseJob parses kind:model:batch[:prio][@gpu]. Train jobs may fall back
// to the CPU; serve jobs are closed loop and infer jobs saturated.
func parseJob(s string) (scenario.JobRequest, error) {
	var req scenario.JobRequest
	var err error
	spec, gpu, hasGPU := strings.Cut(s, "@")
	if hasGPU {
		if req.GPU, err = strconv.Atoi(gpu); err != nil {
			return req, fmt.Errorf("job %q: bad gpu index", s)
		}
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 3 {
		return req, fmt.Errorf("job %q: want kind:model:batch[:prio]", s)
	}
	req.Name, req.Model = parts[0]+"-"+parts[1], parts[1]
	if req.Batch, err = strconv.Atoi(parts[2]); err != nil {
		return req, fmt.Errorf("job %q: bad batch", s)
	}
	if len(parts) > 3 {
		if req.Priority, err = strconv.Atoi(parts[3]); err != nil {
			return req, fmt.Errorf("job %q: bad priority", s)
		}
	}
	switch parts[0] {
	case "train":
		req.Train, req.FallbackCPU = true, true
	case "serve":
		req.ClosedLoop = true
	case "infer":
		req.Saturated = true
	default:
		return req, fmt.Errorf("job %q: unknown kind %q", s, parts[0])
	}
	return req, nil
}

// report prints the text report of a flag-described run. sc is the
// lowered scenario: its jobs line up with res.Jobs, and its traffic block
// carries the flag values the traffic line echoes.
func report(w io.Writer, sc scenario.Scenario, res scenario.Result) {
	fmt.Fprintf(w, "machine=%s scheduler=%s window=%s\n", res.Machine, res.Scheduler, res.Window)
	if t := sc.Traffic; t != nil {
		fmt.Fprintf(w, "  traffic: rps=%g clients=%d offered=%d admitted=%d shed-at-admission=%d\n",
			t.RPS, t.Clients, res.TrafficOffered, res.TrafficAdmitted, res.TrafficOffered-res.TrafficAdmitted)
	}
	for i, job := range res.Jobs {
		status := "ok"
		if job.Crashed {
			status = "CRASHED: " + job.Error
		}
		line := fmt.Sprintf("  %-20s iters=%-6d throughput=%8.1f img/s", job.Name, job.Iterations, job.Throughput)
		if job.VNodes > 0 { // elastic jobs only; they never drop below one vnode
			line += fmt.Sprintf("  vnodes=%d binding=%s restarts=%d", job.VNodes, job.Binding, job.Restarts)
			if job.Gang {
				line += " gang"
			}
		}
		if job.Requests > 0 {
			line += fmt.Sprintf("  p95=%v p99=%v", job.P95.Round(time.Millisecond), job.P99.Round(time.Millisecond))
		}
		if job.Offered > 0 {
			line += fmt.Sprintf("  served=%d/%d shed=%d", job.Served, job.Offered, job.Shed)
			if job.Batches > 0 && job.Served > job.Batches {
				line += fmt.Sprintf(" mean-batch=%.1f", job.MeanBatch)
			}
			if sc.Jobs[i].SLOMillis > 0 {
				line += fmt.Sprintf(" slo-attained=%.1f%%", job.SLOAttainmentPct)
			}
		}
		fmt.Fprintf(w, "%s  [%s]\n", line, status)
	}
	if res.Scheduler == switchflow.PolicySwitchFlow.String() {
		fmt.Fprintf(w, "  preemptions=%d migrations=%d grant-p95=%v\n",
			res.Preemptions, res.Migrations, res.GrantP95.Round(time.Microsecond))
	}
	if st := res.Faults; st != nil && st.Injected > 0 {
		fmt.Fprintf(w, "  faults=%d (lost-gpu=%d transient=%d stall=%d) jobs-lost=%d migrations=%d restarts=%d checkpoints=%d\n",
			st.Injected, st.DeviceLost, st.Transients, st.InputStalls,
			st.JobsLost, st.Migrations, st.Restarts, st.Checkpoints)
	}
}
