package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"switchflow/internal/device"
)

// KernelStat aggregates one kernel's executions, nvprof style (§2.2's
// methodology: "We used nvprof to collect statistics of primitive
// routines").
type KernelStat struct {
	// Name is the kernel label.
	Name string
	// Ctx is the owning context (job).
	Ctx int
	// Count is the number of executions.
	Count int
	// Total, Mean, Max summarize execution time.
	Total time.Duration
	Mean  time.Duration
	Max   time.Duration
	// Share is Total as a fraction of all kernel time in the profile.
	Share float64
}

// Profile aggregates spans per (kernel, ctx), ordered by total time
// descending.
func Profile(spans []device.Span) []KernelStat {
	type key struct {
		name string
		ctx  int
	}
	agg := make(map[key]*KernelStat)
	var grandTotal time.Duration
	for _, s := range spans {
		k := key{name: s.Name, ctx: s.Ctx}
		st, ok := agg[k]
		if !ok {
			st = &KernelStat{Name: s.Name, Ctx: s.Ctx}
			agg[k] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		if d > st.Max {
			st.Max = d
		}
		grandTotal += d
	}
	stats := make([]KernelStat, 0, len(agg))
	for _, st := range agg {
		st.Mean = st.Total / time.Duration(st.Count)
		if grandTotal > 0 {
			st.Share = float64(st.Total) / float64(grandTotal)
		}
		stats = append(stats, *st)
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Total != stats[j].Total {
			return stats[i].Total > stats[j].Total
		}
		if stats[i].Name != stats[j].Name {
			return stats[i].Name < stats[j].Name
		}
		return stats[i].Ctx < stats[j].Ctx
	})
	return stats
}

// WriteProfile renders the top-n kernels of spans as an nvprof-like
// table. n <= 0 prints everything.
func WriteProfile(w io.Writer, spans []device.Span, n int) error {
	stats := Profile(spans)
	if n > 0 && n < len(stats) {
		stats = stats[:n]
	}
	if _, err := fmt.Fprintf(w, "%7s %5s %9s %12s %12s %12s  %s\n",
		"time%", "ctx", "calls", "total", "avg", "max", "name"); err != nil {
		return err
	}
	for _, st := range stats {
		if _, err := fmt.Fprintf(w, "%6.2f%% %5d %9d %12s %12s %12s  %s\n",
			st.Share*100, st.Ctx, st.Count,
			round(st.Total), round(st.Mean), round(st.Max), st.Name); err != nil {
			return err
		}
	}
	return nil
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
