// Command swbench regenerates the tables and figures of the SwitchFlow
// paper's evaluation (§5) on the simulated substrate.
//
// Usage:
//
//	swbench -exp all
//	swbench -exp f6 -requests 100
//	swbench -exp f8 -iters 200
//
// swbench -h lists the experiment ids; -exp all runs every experiment in
// that order.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"switchflow/internal/experiments"
	"switchflow/internal/harness"
	"switchflow/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(ids(), ",")+",all")
		iters    = flag.Int("iters", 200, "iterations per measurement (figures 3, 8, 9, 10)")
		requests = flag.Int("requests", 200, "inference requests per cell (figure 6, preempt, ablation)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for experiment sweeps (1 = serial)")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file of the canned two-ResNet50 co-run and exit")
		clients  = flag.Int("clients", 1_000_000, "with -exp fleet: simulated client population (aggregated, base rate stays fixed)")
		fleetWin = flag.Duration("fleet-window", 75*time.Second, "with -exp fleet: virtual horizon of the fleet scenario")
	)
	flag.Parse()
	harness.SetParallelism(*parallel)
	if *traceOut != "" {
		if err := writeTrace(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "swbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, params{*iters, *requests, *fleetWin, *clients}); err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
}

// params are the sweep sizes the flags set.
type params struct {
	iters, requests int
	fleetWin        time.Duration
	clients         int
}

// sweep is every experiment, in the order -exp all runs them.
var sweep = []struct {
	id  string
	run func(params)
}{
	{"t1", func(params) { table1() }},
	{"f2", func(params) { figure2() }},
	{"f3", func(p params) { figure3(p.iters) }},
	{"f6", func(p params) { figure6(p.requests) }},
	{"f7", func(params) { figure7() }},
	{"f8", func(p params) { figure8(p.iters) }},
	{"f9", func(p params) { figure9(p.iters) }},
	{"f10", func(p params) { figure10(p.iters) }},
	{"preempt", func(p params) { preempt(p.requests) }},
	{"gandiva", func(p params) { gandiva(p.requests) }},
	{"load", func(p params) { load(p.requests) }},
	{"serving", func(params) { serving() }},
	{"eager", func(params) { eager() }},
	{"fleet", func(p params) { fleet(p.fleetWin, p.clients) }},
	{"ablation", func(p params) { ablation(p.requests) }},
	{"chaos", func(params) { chaos() }},
	{"elastic", func(params) { elastic() }},
	{"gang", func(params) { gang() }},
}

// ids lists the experiment ids in sweep order.
func ids() []string {
	out := make([]string, len(sweep))
	for i, e := range sweep {
		out[i] = e.id
	}
	return out
}

// run runs the experiment named exp, or every experiment for "all".
func run(exp string, p params) error {
	ran := false
	for _, e := range sweep {
		if exp == "all" || exp == e.id {
			timed(e.id, func() { e.run(p) })
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// timed reports per-experiment wall-clock time on stderr, keeping stdout
// (the tables) byte-identical between serial and parallel runs.
func timed(id string, fn func()) {
	//swlint:allow simclock wall-clock timing is stderr-only progress reporting, never a simulation input
	start := time.Now()
	fn()
	//swlint:allow simclock elapsed wall time goes to stderr; stdout tables stay deterministic
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(os.Stderr, "swbench: %-8s %8.2fs wall (workers=%d)\n",
		id, elapsed, harness.Parallelism())
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1() {
	header("Table 1: model state transfer (GPU to GPU, PCIe 3.0 x16)")
	fmt.Printf("%-20s %12s %9s %12s %12s %12s\n",
		"model", "state MiB", "tensors", "transfer ms", "paper MiB", "paper ms")
	for _, r := range experiments.Table1() {
		fmt.Printf("%-20s %12.2f %9d %12.3f %12.2f %12.3f\n",
			r.Model, r.StatefulMB, r.Tensors, r.TransferMS, r.PaperMB, r.PaperMS)
	}
}

func figure2() {
	header("Figure 2: two ResNet50 training jobs sharing a V100 (threaded TF)")
	res := experiments.Figure2(10 * time.Second)
	fmt.Printf("solo: %.0f img/s; co-run: %.0f / %.0f img/s (paper: 226 -> 116)\n",
		res.SoloImgPerSec, res.CoRunImgPerSec[0], res.CoRunImgPerSec[1])
	fmt.Printf("kernel overlap fraction: %.3f (spatial sharing barely happens)\n",
		res.OverlapFraction)
	fmt.Println("timeline (first 2s, 1 col = 25ms):")
	_ = trace.RenderASCII(os.Stdout, res.Spans, 25*time.Millisecond, 80)
}

func figure3(iters int) {
	header(fmt.Sprintf("Figure 3: GPU idle fraction per session (avg of %d sessions)", iters))
	fmt.Printf("%-14s %-10s %-20s %6s %12s %12s %8s\n",
		"gpu", "mode", "model", "batch", "session ms", "gpu ms", "idle")
	for _, r := range experiments.Figure3(iters) {
		fmt.Printf("%-14s %-10s %-20s %6d %12.1f %12.1f %7.1f%%\n",
			r.GPU, r.Mode, r.Model, r.Batch, r.SessionMS, r.GPUBusyMS, r.IdleFrac*100)
	}
}

func figure6(requests int) {
	header(fmt.Sprintf("Figure 6: p95 inference tail latency, TF vs SwitchFlow (%d requests)", requests))
	fmt.Printf("%-20s %-14s %12s %12s %9s\n", "training (bg)", "inference", "tf p95 ms", "sf p95 ms", "speedup")
	for _, r := range experiments.Figure6(requests) {
		fmt.Printf("%-20s %-14s %12.1f %12.1f %8.2fx\n",
			r.TrainModel, r.InferModel, r.TFP95MS, r.SFP95MS, r.Speedup)
	}
}

func figure7() {
	header("Figure 7: throughput of two co-running training jobs (img/s)")
	fmt.Printf("%-4s %-12s %-18s %-18s %8s %8s %8s %8s %6s %-8s\n",
		"sub", "scheduler", "background", "model",
		"bg-solo", "bg-co", "md-solo", "md-co", "oom", "low-dev")
	for _, r := range experiments.Figure7() {
		fmt.Printf("%-4s %-12s %-18s %-18s %8.1f %8.1f %8.1f %8.1f %6v %-8s\n",
			r.Subfigure, r.Scheduler, r.Background, r.Model,
			r.BackgroundSolo, r.BackgroundCoRun, r.ModelSolo, r.ModelCoRun,
			r.OOM, r.LowDevice)
	}
}

func figure8(iters int) {
	header(fmt.Sprintf("Figure 8: input reuse, 2 identical models, %d iterations each", iters))
	fmt.Printf("%-14s %-10s %6s %-20s %12s %12s %9s\n",
		"gpu", "mode", "batch", "model", "timeslice s", "reuse s", "improve")
	for _, r := range experiments.Figure8(iters) {
		fmt.Printf("%-14s %-10s %6d %-20s %12.1f %12.1f %8.1f%%\n",
			r.GPU, r.Mode, r.Batch, r.Model, r.BaselineSec, r.ReuseSec, r.ImprovePct)
	}
}

func figure9(iters int) {
	header(fmt.Sprintf("Figure 9: input reuse among different models (V100, %d iterations)", iters))
	fmt.Printf("%-46s %6s %12s %12s %9s\n", "models", "batch", "timeslice s", "reuse s", "improve")
	for _, r := range experiments.Figure9(iters) {
		fmt.Printf("%-46s %6d %12.1f %12.1f %8.1f%%\n",
			strings.Join(r.Models, "+"), r.Batch, r.BaselineSec, r.ReuseSec, r.ImprovePct)
	}
}

func figure10(iters int) {
	header(fmt.Sprintf("Figure 10: interleaving independent models (V100, %d iterations)", iters))
	fmt.Printf("%-4s %-14s %-10s %-20s %12s %12s %9s\n",
		"sub", "partner", "p-mode", "model", "timeslice s", "switchflow s", "improve")
	for _, r := range experiments.Figure10(iters) {
		fmt.Printf("%-4s %-14s %-10s %-20s %12.1f %12.1f %8.1f%%\n",
			r.Subfigure, r.Partner, r.PartnerMode, r.Model, r.BaselineSec, r.SFSec, r.ImprovePct)
	}
}

func preempt(requests int) {
	header("Preemption overhead (§5.2.3)")
	fmt.Printf("%-14s %12s %10s %10s %10s %10s %12s %10s\n",
		"train model", "preemptions", "mean ms", "p95 ms", "max ms", "state MB", "transfer ms", "p95 serve")
	for _, model := range []string{"ResNet50", "VGG16", "InceptionV3", "MobileNetV2"} {
		r := experiments.PreemptionOverhead(model, requests)
		fmt.Printf("%-14s %12d %10.2f %10.2f %10.2f %10.1f %12.2f %10.1f\n",
			r.TrainModel, r.Preemptions, r.MeanGrantMS, r.P95GrantMS, r.MaxGrantMS,
			r.StateMB, r.TransferMS, r.ServedP95MS)
	}
}

func ablation(requests int) {
	header("Ablation: design choices of §3 (ResNet50 serve + VGG16 train, V100)")
	fmt.Printf("%-18s %12s %12s %12s  %s\n",
		"variant", "serve p95", "train img/s", "grant p95", "description")
	for _, r := range experiments.Ablation(requests) {
		fmt.Printf("%-18s %10.1fms %12.1f %10.2fms  %s\n",
			r.Variant, r.ServeP95MS, r.TrainImgPS, r.PreemptP95, r.Description)
	}
	header("Ablation: migration state transfer (Figure 7 e scenario)")
	fmt.Printf("%-16s %18s %18s\n", "variant", "high 1st step s", "low recovery s")
	for _, r := range experiments.AblationMigration() {
		fmt.Printf("%-16s %18.3f %18.3f\n", r.Variant, r.HighFirstStepSec, r.LowRecoverySec)
	}
}

func gandiva(requests int) {
	header("Preemption mechanisms: SwitchFlow vs Gandiva-style checkpointing (§6)")
	fmt.Printf("%-14s | %10s %10s %10s | %10s %10s %10s\n",
		"train model", "sf p95", "sf grant", "sf steps/s", "ckpt p95", "ckpt grant", "ck steps/s")
	for _, r := range experiments.Gandiva(requests) {
		fmt.Printf("%-14s | %8.1fms %8.1fms %10.2f | %8.1fms %8.1fms %10.2f\n",
			r.TrainModel, r.SFP95MS, r.SFGrantP95MS, r.SFTrainPS,
			r.CkptP95MS, r.CkptGrantP95MS, r.CkptTrainPS)
	}
}

func load(requests int) {
	header("Load sweep: Poisson inference + VGG16 training on a V100")
	fmt.Printf("%10s %12s %12s %12s %12s\n", "req/s", "tf p95 ms", "tf p99 ms", "sf p95 ms", "sf p99 ms")
	for _, r := range experiments.LoadSweep(requests) {
		fmt.Printf("%10.1f %12.1f %12.1f %12.1f %12.1f\n",
			r.RatePerSec, r.TFP95MS, r.TFP99MS, r.SFP95MS, r.SFP99MS)
	}
}

func serving() {
	header("Serving: SLO-aware dynamic batching + admission control (ResNet50, V100, 200ms SLO, 30s)")
	fmt.Printf("%10s | %10s %9s %9s %7s %7s %7s | %10s %9s %9s %7s %7s\n",
		"req/s",
		"b-goodput", "b-p95", "b-p99", "b-shed", "b-att%", "b-batch",
		"u-goodput", "u-p95", "u-p99", "u-shed", "u-att%")
	for _, r := range experiments.ServingSweep(30 * time.Second) {
		fmt.Printf("%10.1f | %10.1f %7.1fms %7.1fms %7d %6.1f%% %7.2f | %10.1f %7.1fms %7.1fms %7d %6.1f%%\n",
			r.RatePerSec,
			r.Batched.GoodputPS, r.Batched.P95MS, r.Batched.P99MS,
			r.Batched.Shed, r.Batched.AttainPct, r.Batched.MeanBatch,
			r.Unbatched.GoodputPS, r.Unbatched.P95MS, r.Unbatched.P99MS,
			r.Unbatched.Shed, r.Unbatched.AttainPct)
	}
}

func eager() {
	header("Execution modes: eager vs static vs fused-static (solo training, V100)")
	fmt.Printf("%-14s %6s %12s %12s %12s %10s %10s\n",
		"model", "batch", "eager img/s", "static", "fused", "static-x", "fused-x")
	for _, r := range experiments.EagerComparison() {
		fmt.Printf("%-14s %6d %12.1f %12.1f %12.1f %9.2fx %9.2fx\n",
			r.Model, r.Batch, r.EagerImgPS, r.StaticImgPS, r.FusedImgPS,
			r.StaticSpeedX, r.FusedSpeedX)
	}
}

func chaos() {
	header("Chaos: fault injection and recovery (60s; GPU 0 lost at 20s + seeded transients/stalls)")
	fmt.Printf("%-12s %5s %7s %8s %10s %7s %-8s %8s %6s %5s %5s %6s\n",
		"scheduler", "seed", "faults", "served", "p95 ms", "alive", "device", "train-it", "lost", "migr", "rest", "roll")
	for _, r := range experiments.Chaos([]int64{1, 2, 3}) {
		dev := r.ServeDevice
		if dev == "" {
			dev = "-"
		}
		fmt.Printf("%-12s %5d %7d %8d %10.1f %7v %-8s %8d %6d %5d %5d %6d\n",
			r.Scheduler, r.Seed, r.Injected, r.Served, r.ServeP95MS, r.ServeAlive, dev,
			r.TrainIters, r.JobsLost, r.Migrations, r.Restarts, r.IterationsLost)
	}
}

func elastic() {
	header("Elastic: virtual-node recovery vs checkpoint/restart (60s; gpu:0 drained or lost at 30s)")
	fmt.Printf("%-10s %-12s %8s %7s %6s %6s %6s %6s  %-20s\n",
		"mode", "scheduler", "train-it", "alive", "rest", "roll", "grows", "rebind", "binding")
	for _, r := range experiments.Elastic() {
		binding := r.Binding
		if binding == "" {
			binding = "-"
		}
		fmt.Printf("%-10s %-12s %8d %7v %6d %6d %6d %6d  %-20s\n",
			r.Mode, r.Scheduler, r.Iterations, r.Alive, r.Restarts, r.IterationsLost,
			r.Grows, r.Rebinds, binding)
	}
}

func gang() {
	header("Gang: data-parallel training with topology-priced ring all-reduce (30s, NVLink islands)")
	fmt.Printf("%-12s %8s %6s %10s %7s %7s %7s %7s %7s %8s\n",
		"mode", "train-it", "syncs", "sync ms", "places", "preempt", "resume", "stragl", "queued", "partial")
	for _, r := range experiments.Gang() {
		fmt.Printf("%-12s %8d %6d %10.3f %7d %7d %7d %7d %7d %8d\n",
			r.Mode, r.Iterations, r.AllReduces, r.MeanSyncMillis,
			r.GangPlaces, r.GangPreempts, r.GangResumes, r.Stragglers,
			r.QueuedWhole, r.PartialGangs)
	}
}

func fleet(window time.Duration, clients int) {
	header(fmt.Sprintf(
		"Fleet: million-user serving on 8 nodes / 16x V100 (%v window, %d clients, diurnal + 6x flash crowd)",
		window, clients))
	fmt.Printf("%-12s %-5s %9s %9s %7s %8s %9s %10s %4s %4s %4s %4s %5s %7s %9s %7s %7s %11s\n",
		"strategy", "auto", "offered", "routed", "drop", "shed", "served", "goodput/s",
		"out", "in", "shr", "grw", "repl", "gold%", "gold p99", "slvr%", "brnz%", "train img/s")
	for _, r := range experiments.Fleet(window, clients) {
		fmt.Printf("%-12s %-5v %9d %9d %7d %8d %9d %10.1f %4d %4d %4d %4d %5d %6.1f%% %9.1f %6.1f%% %6.1f%% %11.1f\n",
			r.Strategy, r.Autoscaled, r.Offered, r.Routed, r.Dropped, r.Shed, r.Served,
			r.GoodputPS, r.ScaleOuts, r.ScaleIns, r.Shrinks, r.Grows, r.FinalReplicas,
			r.Gold.AttainPct, r.Gold.WorstP99MS, r.Silver.AttainPct, r.Bronze.AttainPct,
			r.TrainImgPS)
	}
}
