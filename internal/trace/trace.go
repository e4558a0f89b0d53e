// Package trace renders per-kernel GPU timelines, the data behind the
// paper's Figure 2 (two ResNet50s interleaving on one V100). It keeps no
// state: record a run's events with an obs.Recorder subscribed to Kinds,
// take its kernel spans with Spans, and render them as ASCII, JSON or an
// nvprof-style profile; obs.WriteChrome renders the same events for
// Perfetto.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
)

// Kinds is what a trace records: kernel spans plus every scheduler
// decision. Executor-level OpSched/Launch dispatch is omitted — it
// multiplies the artifact size without adding to the Figure 2 story.
var Kinds = []obs.Kind{
	obs.KindKernelSpan, obs.KindPreempt, obs.KindResume, obs.KindMigrate,
	obs.KindBatchFuse, obs.KindAdmit, obs.KindShed, obs.KindServe,
	obs.KindFaultInject, obs.KindJobLost, obs.KindCheckpoint,
	obs.KindRestore, obs.KindPlace,
}

// Spans returns the kernel spans among events, ordered by start time and
// then context. Ties (same Start and Ctx — e.g. zero-duration kernels)
// keep their order in events, so a recorded stream, or an obs.Merge of
// several, gives a total order that is identical across runs.
func Spans(events []obs.Event) []device.Span {
	var spans []device.Span
	for _, e := range events {
		if e.Kind == obs.KindKernelSpan {
			spans = append(spans, device.Span{Name: e.Name, Ctx: e.Ctx, Start: e.Start, End: e.Start + e.Dur})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Ctx < spans[j].Ctx
	})
	return spans
}

// Contexts returns the distinct kernel contexts among spans, sorted.
func Contexts(spans []device.Span) []int {
	seen := make(map[int]bool)
	for _, s := range spans {
		seen[s.Ctx] = true
	}
	ctxs := make([]int, 0, len(seen))
	for ctx := range seen {
		ctxs = append(ctxs, ctx)
	}
	sort.Ints(ctxs)
	return ctxs
}

// BusyTime returns the total kernel time attributed to ctx.
func BusyTime(spans []device.Span, ctx int) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.Ctx == ctx {
			total += s.End - s.Start
		}
	}
	return total
}

// OverlapTime returns how long kernels from two different contexts were
// simultaneously in flight — Figure 2's measure of (in)effective spatial
// sharing. spans must be ordered by start time, as Spans returns them.
func OverlapTime(spans []device.Span, ctxA, ctxB int) time.Duration {
	var overlap time.Duration
	for i, a := range spans {
		if a.Ctx != ctxA {
			continue
		}
		for _, b := range spans[i+1:] {
			if b.Ctx != ctxB {
				continue
			}
			if b.Start >= a.End {
				break
			}
			lo, hi := b.Start, a.End
			if a.Start > lo {
				lo = a.Start
			}
			if b.End < hi {
				hi = b.End
			}
			if hi > lo {
				overlap += hi - lo
			}
		}
	}
	return overlap
}

// WriteJSON emits the spans as a JSON array.
func WriteJSON(w io.Writer, spans []device.Span) error {
	type jsonSpan struct {
		Name    string `json:"name"`
		Ctx     int    `json:"ctx"`
		StartUS int64  `json:"startMicros"`
		EndUS   int64  `json:"endMicros"`
	}
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = jsonSpan{
			Name:    s.Name,
			Ctx:     s.Ctx,
			StartUS: s.Start.Microseconds(),
			EndUS:   s.End.Microseconds(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RenderASCII draws a Figure 2 style timeline: one row per context, one
// column per bucket, '#' where the context had a kernel in flight.
func RenderASCII(w io.Writer, spans []device.Span, bucket time.Duration, width int) error {
	if bucket <= 0 || width <= 0 {
		return fmt.Errorf("trace: bucket and width must be positive")
	}
	for _, ctx := range Contexts(spans) {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range spans {
			if s.Ctx != ctx {
				continue
			}
			lo := int(s.Start / bucket)
			hi := int((s.End + bucket - 1) / bucket)
			for i := lo; i < hi && i < width; i++ {
				row[i] = '#'
			}
		}
		if _, err := fmt.Fprintf(w, "ctx %2d |%s|\n", ctx, string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "        %s (1 col = %v)\n", strings.Repeat("-", width), bucket)
	return err
}
