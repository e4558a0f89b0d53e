// Command swtrace emits a Figure 2 style kernel timeline: two models
// co-running on one GPU under a chosen scheduler, as ASCII art, JSON, an
// nvprof-style profile, or a Chrome trace-event file for Perfetto.
//
// Usage:
//
//	swtrace -models ResNet50,ResNet50 -gpu V100 -sched threaded -for 5s
//	swtrace -format json -o timeline.json
//	swtrace -sched switchflow -format chrome -o trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"switchflow/internal/baseline"
	"switchflow/internal/core"
	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/trace"
	"switchflow/internal/workload"
)

func main() {
	var (
		modelsFlag = flag.String("models", "ResNet50,ResNet50", "comma-separated training models to co-run")
		gpuFlag    = flag.String("gpu", "V100", "GPU model: V100, RTX 2080 Ti, GTX 1080 Ti, Jetson TX2")
		schedFlag  = flag.String("sched", "threaded", "scheduler: threaded or switchflow")
		window     = flag.Duration("for", 5*time.Second, "virtual time to trace")
		batch      = flag.Int("batch", 16, "training batch size")
		format     = flag.String("format", "ascii", "output: ascii, json, profile (nvprof-style kernel stats), or chrome (trace-event JSON for Perfetto)")
		width      = flag.Int("width", 100, "ascii timeline width")
		prioFlag   = flag.String("prio", "", "comma-separated job priorities; default is the job index, so later jobs outrank earlier ones under switchflow")
		outFlag    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if err := run(*modelsFlag, *gpuFlag, *schedFlag, *format, *prioFlag, *outFlag, *window, *batch, *width); err != nil {
		fmt.Fprintln(os.Stderr, "swtrace:", err)
		os.Exit(1)
	}
}

func run(modelList, gpuName, sched, format, prios, outPath string, window time.Duration, batch, width int) error {
	if err := checkFlags(sched, format, window, width); err != nil {
		return err
	}
	eng := sim.NewEngine()
	machine, err := machineFor(eng, gpuName)
	if err != nil {
		return err
	}
	tl := &trace.Timeline{}
	tl.AttachBus(machine.Bus())
	// The chrome export wants scheduler decisions alongside kernel spans,
	// so it records the full spine rather than just the timeline.
	rec := obs.NewRecorder(0)
	if format == "chrome" {
		machine.Bus().Subscribe(rec,
			obs.KindKernelSpan, obs.KindPreempt, obs.KindResume, obs.KindMigrate,
			obs.KindBatchFuse, obs.KindAdmit, obs.KindShed, obs.KindServe,
			obs.KindFaultInject, obs.KindJobLost, obs.KindCheckpoint,
			obs.KindRestore, obs.KindPlace)
	}

	names := strings.Split(modelList, ",")
	priorities, err := parsePriorities(prios, len(names))
	if err != nil {
		return err
	}
	cfgs := make([]workload.Config, 0, len(names))
	for i, name := range names {
		spec, err := models.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		cfgs = append(cfgs, workload.Config{
			Name:     fmt.Sprintf("%s-%d", spec.Name, i),
			Model:    spec,
			Batch:    batch,
			Kind:     workload.KindTraining,
			Priority: priorities[i],
			Device:   device.GPUID(0),
		})
	}

	var addJob func(workload.Config) (*workload.Job, error)
	if sched == "switchflow" {
		addJob = core.NewManager(eng, machine, core.Options{}).AddJob
	} else {
		addJob = baseline.New(eng, machine, baseline.ThreadedTF).AddJob
	}
	for _, cfg := range cfgs {
		if _, err := addJob(cfg); err != nil {
			return err
		}
	}

	eng.RunUntil(window)

	out := io.Writer(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	switch format {
	case "json":
		return tl.WriteJSON(out)
	case "chrome":
		return obs.WriteChrome(out, rec.Events())
	case "profile":
		fmt.Fprintf(out, "kernel profile on %s under %s over %v:\n", gpuName, sched, window)
		return tl.WriteProfile(out, 25)
	default: // ascii
		bucket := window / time.Duration(width)
		fmt.Fprintf(out, "kernel timeline on %s under %s (1 col = %v):\n", gpuName, sched, bucket)
		return tl.RenderASCII(out, bucket, width)
	}
}

// checkFlags rejects bad -sched, -format, -for and -width values before
// anything runs, so a bad flag neither wastes a simulation nor leaves an
// empty -o file behind.
func checkFlags(sched, format string, window time.Duration, width int) error {
	switch {
	case sched != "threaded" && sched != "switchflow":
		return fmt.Errorf("unknown scheduler %q", sched)
	case format != "ascii" && format != "json" && format != "profile" && format != "chrome":
		return fmt.Errorf("unknown format %q", format)
	case window <= 0:
		return fmt.Errorf("-for must be positive, got %v", window)
	case width <= 0:
		return fmt.Errorf("-width must be positive, got %d", width)
	case window < time.Duration(width):
		return fmt.Errorf("-for %v is shorter than one nanosecond per -width column (%d)", window, width)
	}
	return nil
}

// parsePriorities expands the -prio flag to one priority per job. The
// default ladder gives each job its index, so with -sched switchflow the
// last-listed model outranks the others and the trace shows preemption.
func parsePriorities(flagVal string, n int) ([]int, error) {
	out := make([]int, n)
	if flagVal == "" {
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	parts := strings.Split(flagVal, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-prio lists %d priorities for %d models", len(parts), n)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad priority %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func machineFor(eng *sim.Engine, gpu string) (*device.Machine, error) {
	class, cpu, ok := device.PaperGPU(gpu)
	if !ok {
		return nil, fmt.Errorf("unknown GPU %q", gpu)
	}
	return device.NewMachine(eng, cpu, class), nil
}
