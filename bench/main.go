// Command bench is the repository benchmark: four workloads that stress
// different layers of the simulator, measured for host cost (relative to
// a fixed reference loop) and for the simulated quantities the paper
// reports, plus a traced run that attributes host time to layers.
//
// Every rep runs in a fresh child process (this binary re-run with
// -worker), one at a time, on one thread. See README.md for the metrics,
// the workloads and how to compare two commits.
//
//	bash bench/run.sh                          # all workloads
//	bash bench/run.sh -workload serve-preempt  # one workload, result line last
//	bash bench/run.sh -workload gang-fault -trace 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// defaultTraceDir is where -trace 1 writes spans and profiles, relative
// to the working directory.
const defaultTraceDir = ".bench_build/trace"

// minReps is the fewest reps a workload runs, however short -seconds is:
// the digest gate needs two, a median wants three.
const minReps = 3

// childTimeout bounds one child process; a hung rep is killed and fails
// the run.
const childTimeout = 120 * time.Second

// traceFlag is -trace: 0 (untraced), 1 (traced, output under
// defaultTraceDir) or the output directory itself.
type traceFlag struct{ dir string }

func (t *traceFlag) String() string { return t.dir }

func (t *traceFlag) Set(s string) error {
	switch s {
	case "0", "":
		t.dir = ""
	case "1":
		t.dir = defaultTraceDir
	default:
		t.dir = s
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    traceFlag
	jsonOut  string
	quick    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every arrival and traffic stream derives from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measure each workload for this many host seconds (at least 3 reps)")
	flag.Var(&o.trace, "trace", "0, 1, or a directory: run the traced variant writing spans and profiles there")
	flag.StringVar(&o.jsonOut, "json", "", "also write the results to this JSON file")
	flag.BoolVar(&o.quick, "quick", false, "tiny horizons and ladder batches (plumbing check, not a measurement)")
	worker := flag.String("worker", "", "internal: run one rep of this workload (or the ladder) and print its result")
	rep := flag.Int("rep", 0, "internal: rep index of a -worker process")
	role := flag.String("role", rolePlain, "internal: rep role (plain, profiled, parallel)")
	flag.Parse()

	if *worker != "" {
		os.Exit(child(*worker, *rep, *role, o))
	}
	if err := run(context.Background(), o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// child runs one rep (or the ladder) in this process and prints its
// result as one JSON line.
func child(worker string, rep int, role string, o options) int {
	var v any
	var err error
	if worker == "ladder" {
		v, err = runLadder(o.quick, o.trace.dir)
	} else if wl, ok := workloadByName(worker); ok {
		v, err = runRep(wl, o.seed, o.quick, role, o.trace.dir)
	} else {
		err = fmt.Errorf("unknown workload %q", worker)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s rep %d (%s): %v\n", worker, rep, role, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// report is one workload's result: the line the benchmark prints last.
type report struct {
	Workload  string              `json:"workload,omitempty"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func run(ctx context.Context, o options) error {
	selected := benchWorkloads
	if o.workload != "" {
		wl, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []benchWorkload{wl}
	}
	var ladder ladderResult
	if o.trace.dir != "" {
		if err := spawn(ctx, o, "ladder", 0, rolePlain, &ladder); err != nil {
			return err
		}
	}
	var reports []report
	for _, wl := range selected {
		var r report
		var err error
		if o.trace.dir == "" {
			r, err = measure(ctx, o, wl)
		} else {
			r, err = traced(ctx, o, wl, ladder)
		}
		if err != nil {
			return err
		}
		reports = append(reports, r)
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(reports) == 1 {
		r := reports[0]
		r.Workload = ""
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	return nil
}

// measure runs untraced reps of wl for the -seconds budget and reports
// the host times from their lower envelope and every other end-to-end
// metric's median over them.
func measure(ctx context.Context, o options, wl benchWorkload) (report, error) {
	var reps []repResult
	elapsed := stopwatch()
	for len(reps) < minReps || elapsed().Seconds() < o.seconds {
		var r repResult
		if err := spawn(ctx, o, wl.name, len(reps), rolePlain, &r); err != nil {
			return report{}, err
		}
		reps = append(reps, r)
	}
	if err := sameDigest(reps); err != nil {
		return report{}, err
	}
	perRep := make([]map[string]float64, len(reps))
	for i, r := range reps {
		perRep[i] = repValues(r)
	}
	setup, run := hostTimes(reps)
	values := map[string]float64{"setup_s": setup, "run_vs_ref": run}
	series := make([]float64, len(reps))
	for _, d := range endToEnd {
		for i, v := range perRep {
			series[i] = v[d.name]
		}
		q1, med, q3 := quartiles(series)
		how := "envelope"
		if _, ok := values[d.name]; !ok {
			values[d.name], how = med, "median"
		}
		fmt.Printf("%-14s %-24s %14.6g %-10s %s of %d reps, per-rep quartiles %.6g..%.6g\n",
			wl.name, d.name, values[d.name], d.unit, how, len(reps), q1, q3)
	}
	printSim(wl.name, reps[0].Sim)
	metrics, err := pick(endToEnd, values)
	return report{Workload: wl.name, Correct: true, Attempted: len(reps), Metrics: metrics}, err
}

// traced runs wl once plainly and once under the profiler (and, on the
// fleet, once more on two workers), checks the digests agree, and
// reports the per-layer metrics.
func traced(ctx context.Context, o options, wl benchWorkload, ladder ladderResult) (report, error) {
	roles := []string{rolePlain, roleProfiled}
	if wl.name == "fleet-flash" {
		roles = append(roles, roleParallel)
	}
	reps := make([]repResult, len(roles))
	for i, role := range roles {
		if err := spawn(ctx, o, wl.name, i, role, &reps[i]); err != nil {
			return report{}, err
		}
	}
	if err := sameDigest(reps); err != nil {
		return report{}, err
	}
	metrics, err := pick(perLayer, perLayerValues(reps[0], reps[1], ladder))
	if err != nil {
		return report{}, err
	}
	for _, d := range perLayer {
		fmt.Printf("%-14s %-28s %14.6g %s\n", wl.name, d.name, metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%-14s tracing overhead: run_vs_ref %.4g profiled vs %.4g plain\n",
		wl.name, metrics["bench.traced_run_vs_ref"].Value, repValues(reps[0])["run_vs_ref"])
	printSim(wl.name, reps[0].Sim)
	return report{Workload: wl.name, Correct: true, Attempted: len(reps), Metrics: metrics}, nil
}

// printSim prints the simulated quantities with their sample counts.
func printSim(name string, s simResult) {
	fmt.Printf("%-14s simulated: train %.2f img/s, serve p99 %.2f ms (n=%d), preempt p50 %.2f p99 %.2f ms (n=%d), "+
		"SLO met %.2f%%, failed %.3f%%, recovery p95 %.1f ms (n=%d), %d kernels, %d events\n",
		name, s.TrainImgPerS, s.ServeP99MS, s.ServeSamples, s.PreemptP50MS, s.PreemptP99MS, s.PreemptSamples,
		s.SLOAttainPct, s.FailPct, s.RecoveryP95MS, s.RecoverySamples, s.Kernels, s.Events)
}

// sameDigest is the determinism gate: every rep of one workload and seed
// must produce identical simulated statistics.
func sameDigest(reps []repResult) error {
	for _, r := range reps[1:] {
		if r.Digest != reps[0].Digest {
			return fmt.Errorf("%s: simulated digest differs between reps (%s %s vs %s %s)",
				r.Workload, reps[0].Role, reps[0].Digest, r.Role, r.Digest)
		}
	}
	return nil
}

// spawn re-runs this binary as a child for one rep and decodes the JSON
// result it prints into out.
func spawn(ctx context.Context, o options, worker string, rep int, role string, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := o.trace.dir
	if trace == "" {
		trace = "0"
	}
	args := []string{"-worker", worker, "-rep", strconv.Itoa(rep), "-role", role,
		"-seed", strconv.FormatInt(o.seed, 10), "-trace", trace}
	if o.quick {
		args = append(args, "-quick")
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s rep %d (%s): %w", worker, rep, role, err)
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return fmt.Errorf("%s rep %d (%s): bad result: %w", worker, rep, role, err)
	}
	return nil
}
