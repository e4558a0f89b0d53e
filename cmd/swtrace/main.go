// Command swtrace emits a Figure 2 style kernel timeline: models
// co-running on one GPU under a chosen scheduler, as ASCII art, JSON, an
// nvprof-style profile, or a Chrome trace-event file for Perfetto. Its
// flags lower into a scenario.Scenario; the run is recorded once, and every
// format renders from that one event stream.
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

	"switchflow/internal/obs"
	"switchflow/internal/scenario"
	"switchflow/internal/trace"
)

func main() {
	var (
		modelsFlag = flag.String("models", "ResNet50,ResNet50", "comma-separated training models to co-run")
		gpuFlag    = flag.String("gpu", "V100", "GPU model (V100, RTX 2080 Ti, GTX 1080 Ti, Jetson TX2) or machine name (v100, 2gpu, nvlink, tx2); every job runs on GPU 0, and V100 is the 4x V100 server")
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
	sc, err := lower(modelList, gpuName, sched, prios, window, batch)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder(0)
	if _, err := scenario.Run(sc, func(bus *obs.Bus) { bus.Subscribe(rec, trace.Kinds...) }); err != nil {
		return err
	}
	events := rec.Events()

	out := io.Writer(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	if format == "chrome" {
		return obs.WriteChrome(out, events)
	}
	spans := trace.Spans(events)
	switch format {
	case "json":
		return trace.WriteJSON(out, spans)
	case "profile":
		fmt.Fprintf(out, "kernel profile on %s under %s over %v:\n", gpuName, sched, window)
		return trace.WriteProfile(out, spans, 25)
	default: // ascii
		bucket := window / time.Duration(width)
		fmt.Fprintf(out, "kernel timeline on %s under %s (1 col = %v):\n", gpuName, sched, bucket)
		return trace.RenderASCII(out, spans, bucket, width)
	}
}

// lower turns the flags into a scenario: one training job per model,
// named <Model>-<i>, on GPU 0 of the -gpu machine.
func lower(modelList, gpuName, sched, prios string, window time.Duration, batch int) (scenario.Scenario, error) {
	names := strings.Split(modelList, ",")
	priorities, err := parsePriorities(prios, len(names))
	if err != nil {
		return scenario.Scenario{}, err
	}
	sc := scenario.Scenario{Machine: gpuName, Scheduler: sched, DurationMillis: scenario.Millis(window)}
	for i, name := range names {
		model := strings.TrimSpace(name)
		sc.Jobs = append(sc.Jobs, scenario.JobRequest{
			Name:     fmt.Sprintf("%s-%d", model, i),
			Model:    model,
			Batch:    batch,
			Train:    true,
			Priority: priorities[i],
		})
	}
	return sc, nil
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
