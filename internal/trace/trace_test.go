package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

// kernel is a recorded KernelSpan event for a kernel named name on ctx,
// in flight from startMS to endMS.
func kernel(name string, ctx int, startMS, endMS int) obs.Event {
	start := time.Duration(startMS) * time.Millisecond
	end := time.Duration(endMS) * time.Millisecond
	return obs.Event{Kind: obs.KindKernelSpan, Time: end, Name: name, Ctx: ctx, Start: start, Dur: end - start}
}

func span(ctx int, startMS, endMS int) obs.Event { return kernel("k", ctx, startMS, endMS) }

func TestTimelineSpansSorted(t *testing.T) {
	spans := Spans([]obs.Event{span(1, 20, 30), span(2, 0, 10)})
	if spans[0].Ctx != 2 || spans[1].Ctx != 1 {
		t.Fatalf("spans not sorted by start: %+v", spans)
	}
}

func TestSpansKeepOnlyKernels(t *testing.T) {
	spans := Spans([]obs.Event{
		{Kind: obs.KindPreempt, Ctx: 1},
		span(1, 0, 10),
		{Kind: obs.KindResume, Ctx: 1, Time: 10 * time.Millisecond},
	})
	want := device.Span{Name: "k", Ctx: 1, Start: 0, End: 10 * time.Millisecond}
	if len(spans) != 1 || spans[0] != want {
		t.Fatalf("Spans = %+v, want [%+v]", spans, want)
	}
}

func TestTimelineContextsAndBusy(t *testing.T) {
	spans := Spans([]obs.Event{span(7, 0, 10), span(3, 5, 10), span(7, 20, 25)})
	ctxs := Contexts(spans)
	if len(ctxs) != 2 || ctxs[0] != 3 || ctxs[1] != 7 {
		t.Fatalf("Contexts() = %v", ctxs)
	}
	if got := BusyTime(spans, 7); got != 15*time.Millisecond {
		t.Fatalf("BusyTime(7) = %v, want 15ms", got)
	}
}

func TestTimelineOverlap(t *testing.T) {
	spans := Spans([]obs.Event{
		span(1, 0, 10),
		span(2, 5, 15),  // 5ms overlap with first
		span(2, 20, 30), // no overlap
	})
	if got := OverlapTime(spans, 1, 2); got != 5*time.Millisecond {
		t.Fatalf("OverlapTime = %v, want 5ms", got)
	}
}

// A recorder subscribed to Kinds on a GPU's bus records its kernels.
func TestTimelineAttachBusRecordsKernels(t *testing.T) {
	eng := sim.NewEngine()
	gpu := device.NewGPU(eng, device.GPUID(0), device.ClassV100)
	bus := obs.NewBus(eng)
	gpu.SetBus(bus)
	rec := obs.NewRecorder(0)
	bus.Subscribe(rec, Kinds...)
	gpu.Submit(device.Kernel{Name: "a", Ctx: 1, Work: time.Millisecond, Occupancy: 0.9})
	eng.Run()
	if spans := Spans(rec.Events()); len(spans) != 1 || spans[0].Name != "a" {
		t.Fatalf("recorded spans %+v, want one kernel a", spans)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Spans([]obs.Event{span(1, 0, 10)})); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0]["endMicros"].(float64) != 10000 {
		t.Fatalf("decoded %v", decoded)
	}
}

func TestRenderASCII(t *testing.T) {
	spans := Spans([]obs.Event{span(1, 0, 50), span(2, 50, 100)})
	var buf bytes.Buffer
	if err := RenderASCII(&buf, spans, 10*time.Millisecond, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "#####.....") {
		t.Errorf("ctx 1 row = %q, want first half busy", lines[0])
	}
	if !strings.Contains(lines[1], ".....#####") {
		t.Errorf("ctx 2 row = %q, want second half busy", lines[1])
	}
}

func TestRenderASCIIRejectsBadArgs(t *testing.T) {
	if err := RenderASCII(&bytes.Buffer{}, nil, 0, 10); err == nil {
		t.Fatal("zero bucket accepted")
	}
	if err := RenderASCII(&bytes.Buffer{}, nil, time.Millisecond, 0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestProfileAggregation(t *testing.T) {
	stats := Profile(Spans([]obs.Event{
		kernel("conv", 1, 0, 10),
		kernel("conv", 1, 20, 50),
		kernel("bn", 1, 50, 60),
		kernel("conv", 2, 0, 5),
	}))
	if len(stats) != 3 {
		t.Fatalf("got %d stats, want 3 (per kernel+ctx)", len(stats))
	}
	top := stats[0]
	if top.Name != "conv" || top.Ctx != 1 {
		t.Fatalf("top kernel = %s ctx %d, want conv ctx 1", top.Name, top.Ctx)
	}
	if top.Count != 2 || top.Total != 40*time.Millisecond {
		t.Fatalf("top stat = %+v", top)
	}
	if top.Mean != 20*time.Millisecond || top.Max != 30*time.Millisecond {
		t.Fatalf("mean/max = %v/%v", top.Mean, top.Max)
	}
	// 40 of 55 ms total.
	if top.Share < 0.72 || top.Share > 0.73 {
		t.Fatalf("share = %.3f, want ~0.727", top.Share)
	}
}

func TestWriteProfileTopN(t *testing.T) {
	var events []obs.Event
	for i := 0; i < 5; i++ {
		events = append(events, kernel("k", i, 0, 1))
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, Spans(events), 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
}

func TestProfileEmptyTimeline(t *testing.T) {
	if got := Profile(Spans(nil)); len(got) != 0 {
		t.Fatalf("empty profile has %d rows", len(got))
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, nil, 10); err != nil {
		t.Fatal(err)
	}
}
