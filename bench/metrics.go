package main

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// metric is one reported number. BENCHMARK.json at the repository root
// lists the same names, units and directions; bench_test.go keeps the
// two in step.
type metric struct {
	name, unit, better string
	// bound is how far an end-to-end metric may worsen, as a share of the
	// parent commit's value, before a change counts as a regression.
	bound float64
}

// endToEnd are measured on untraced reps: the host times from the reps'
// lower envelope (hostTimes), the rest the median over reps. Host
// metrics use the process's CPU time, simulated ones virtual time (the
// "sim" units), which repeats exactly for one seed.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_vs_ref", unit: "ratio", better: "lower", bound: 0.12},
	{name: "allocs_per_kernel", unit: "count", better: "lower", bound: 0.01},
	{name: "alloc_bytes_per_kernel", unit: "B", better: "lower", bound: 0.01},
	{name: "live_heap_mib", unit: "MiB", better: "lower", bound: 0.10},
	{name: "train_img_per_s", unit: "img/sim_s", better: "higher", bound: 0.01},
}

// refRoundNominal turns set-up time into seconds at a fixed host speed:
// about the fastest reference round on the 2-vCPU x86 host the bounds
// were set on.
const refRoundNominal = 3 * time.Millisecond

// envelope sums, position by position, the fastest of the reps' times.
// Every rep of one workload and seed does the same work at each position,
// so the fastest rep of each is its cost under the least load from
// neighbours: a neighbour's burst slows a few positions of one rep, which
// another rep runs undisturbed, where a whole rep carries every burst it
// met.
func envelope(reps []repResult, times func(repResult) []float64) float64 {
	sum := 0.0
	for i := range times(reps[0]) {
		low := times(reps[0])[i]
		for _, r := range reps[1:] {
			low = min(low, times(r)[i])
		}
		sum += low
	}
	return sum
}

// hostTimes are the host-time metrics of a group of reps: the builds'
// envelope over that of the reference rounds run before them, in seconds
// at the nominal round, and the timed slices' envelope over that of the
// rounds run after them. Both sides of each ratio are lower envelopes, so
// it hardly depends on how many reps a run fits.
func hostTimes(reps []repResult) (setupS, runVsRef float64) {
	builds := envelope(reps, func(r repResult) []float64 { return r.BuildS })
	buildRefs := envelope(reps, func(r repResult) []float64 { return r.BuildRefS })
	timed := envelope(reps, func(r repResult) []float64 { return r.SliceS })
	rounds := envelope(reps, func(r repResult) []float64 { return r.RoundS })
	return builds / buildRefs * refRoundNominal.Seconds(), timed / rounds
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// repValues are one rep's end-to-end values.
func repValues(r repResult) map[string]float64 {
	setup, run := hostTimes([]repResult{r})
	k := float64(r.Sim.Kernels)
	return map[string]float64{
		"setup_s":                setup,
		"run_vs_ref":             run,
		"allocs_per_kernel":      float64(r.Mallocs) / k,
		"alloc_bytes_per_kernel": float64(r.AllocBytes) / k,
		"live_heap_mib":          r.LiveHeapMiB,
		"train_img_per_s":        r.Sim.TrainImgPerS,
	}
}

// perLayer come from the traced run: the deterministic counts and
// simulated latencies of a plain rep, the profiled rep's attribution of
// host time and allocations, and the layer ladder.
var perLayer = func() []metric {
	m := []metric{
		{name: "sim.events_per_kernel", unit: "count", better: "lower"},
		{name: "device.kernels_per_sim_s", unit: "1/sim_s", better: "higher"},
		{name: "core.preempts_per_sim_s", unit: "1/sim_s", better: "lower"},
		{name: "cluster.routed", unit: "count", better: "higher"},
		{name: "cluster.dropped", unit: "count", better: "lower"},
		{name: "cluster.scale_outs", unit: "count", better: "lower"},
		{name: "cluster.scale_ins", unit: "count", better: "lower"},
		{name: "gc.cycles", unit: "count", better: "lower"},
		{name: "bench.peak_rss_mb", unit: "MB", better: "lower"},
		{name: "bench.setup_cpu_s", unit: "s", better: "lower"},
		{name: "bench.run_s", unit: "s", better: "lower"},
		{name: "bench.ref_s", unit: "s", better: "lower"},
		{name: "bench.sim_s_per_host_s", unit: "ratio", better: "higher"},
		{name: "bench.traced_run_vs_ref", unit: "ratio", better: "lower"},
		{name: "core.preempt_p50_ms", unit: "sim_ms", better: "lower"},
		{name: "core.preempt_p99_ms", unit: "sim_ms", better: "lower"},
		{name: "workload.serve_p99_ms", unit: "sim_ms", better: "lower"},
		{name: "workload.slo_attain_pct", unit: "%", better: "higher"},
		{name: "workload.fail_pct", unit: "%", better: "lower"},
		{name: "core.recovery_p95_ms", unit: "sim_ms", better: "lower"},
	}
	for _, b := range cpuBuckets {
		m = append(m, metric{name: "cpu." + b + "_pct", unit: "%", better: "lower"})
	}
	for _, b := range allocBuckets {
		m = append(m, metric{name: "alloc." + b + "_pct", unit: "%", better: "lower"})
	}
	for _, c := range ladderCells(new(float64)) {
		m = append(m, metric{name: c.layer + ".ns_per_" + c.unit, unit: "ns", better: "lower"})
		if c.allocs {
			m = append(m, metric{name: c.layer + ".allocs_per_" + c.unit, unit: "count", better: "lower"})
		}
	}
	return append(m, metric{name: "executor.self_ns_per_kernel", unit: "ns", better: "lower"})
}()

// perLayerValues assembles the per-layer metrics of one workload.
func perLayerValues(plain, traced repResult, ladder ladderResult) map[string]float64 {
	s := plain.Sim
	h := plain.HorizonS
	v := map[string]float64{
		"sim.events_per_kernel":    float64(s.Events) / float64(s.Kernels),
		"device.kernels_per_sim_s": float64(s.Kernels) / h,
		"core.preempts_per_sim_s":  float64(s.Preemptions) / h,
		"cluster.routed":           float64(s.Routed),
		"cluster.dropped":          float64(s.Dropped),
		"cluster.scale_outs":       float64(s.ScaleOuts),
		"cluster.scale_ins":        float64(s.ScaleIns),
		"gc.cycles":                float64(plain.GCCycles),
		"bench.peak_rss_mb":        plain.PeakRSSMB,
		"bench.setup_cpu_s":        slices.Min(plain.BuildS),
		"bench.run_s":              sum(plain.SliceS),
		"bench.ref_s":              sum(plain.RoundS),
		"bench.sim_s_per_host_s":   h / sum(plain.SliceS),
		"bench.traced_run_vs_ref":  repValues(traced)["run_vs_ref"],
		"core.preempt_p50_ms":      s.PreemptP50MS,
		"core.preempt_p99_ms":      s.PreemptP99MS,
		"workload.serve_p99_ms":    s.ServeP99MS,
		"workload.slo_attain_pct":  s.SLOAttainPct,
		"workload.fail_pct":        s.FailPct,
		"core.recovery_p95_ms":     s.RecoveryP95MS,
	}
	for _, sh := range traced.CPU {
		v["cpu."+sh.Name+"_pct"] = sh.Pct
	}
	for _, sh := range traced.Alloc {
		v["alloc."+sh.Name+"_pct"] = sh.Pct
	}
	for _, nv := range ladder.Metrics {
		v[nv.Name] = nv.Value
	}
	return v
}

// measured is one metric as the result line reports it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the listed metrics from values, failing on any missing.
func pick(defs []metric, values map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = measured{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// (the exclusive method of Python's statistics.quantiles, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}
