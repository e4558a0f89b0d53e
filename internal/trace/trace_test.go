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

func span(ctx int, startMS, endMS int) device.Span {
	return device.Span{
		Name:  "k",
		Ctx:   ctx,
		Start: time.Duration(startMS) * time.Millisecond,
		End:   time.Duration(endMS) * time.Millisecond,
	}
}

func TestTimelineSpansSorted(t *testing.T) {
	var tl Timeline
	tl.Add(span(1, 20, 30))
	tl.Add(span(2, 0, 10))
	spans := tl.Spans()
	if spans[0].Ctx != 2 || spans[1].Ctx != 1 {
		t.Fatalf("spans not sorted by start: %+v", spans)
	}
}

func TestTimelineContextsAndBusy(t *testing.T) {
	var tl Timeline
	tl.Add(span(7, 0, 10))
	tl.Add(span(3, 5, 10))
	tl.Add(span(7, 20, 25))
	ctxs := tl.Contexts()
	if len(ctxs) != 2 || ctxs[0] != 3 || ctxs[1] != 7 {
		t.Fatalf("Contexts() = %v", ctxs)
	}
	if got := tl.BusyTime(7); got != 15*time.Millisecond {
		t.Fatalf("BusyTime(7) = %v, want 15ms", got)
	}
}

func TestTimelineOverlap(t *testing.T) {
	var tl Timeline
	tl.Add(span(1, 0, 10))
	tl.Add(span(2, 5, 15))  // 5ms overlap with first
	tl.Add(span(2, 20, 30)) // no overlap
	if got := tl.OverlapTime(1, 2); got != 5*time.Millisecond {
		t.Fatalf("OverlapTime = %v, want 5ms", got)
	}
}

func TestTimelineAttachBusRecordsKernels(t *testing.T) {
	eng := sim.NewEngine()
	gpu := device.NewGPU(eng, device.GPUID(0), device.ClassV100)
	bus := obs.NewBus(eng)
	gpu.SetBus(bus)
	var tl Timeline
	tl.AttachBus(bus)
	gpu.Submit(device.Kernel{Name: "a", Ctx: 1, Work: time.Millisecond, Occupancy: 0.9})
	eng.Run()
	if len(tl.Spans()) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(tl.Spans()))
	}
}

func TestWriteJSON(t *testing.T) {
	var tl Timeline
	tl.Add(span(1, 0, 10))
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
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
	var tl Timeline
	tl.Add(span(1, 0, 50))
	tl.Add(span(2, 50, 100))
	var buf bytes.Buffer
	if err := tl.RenderASCII(&buf, 10*time.Millisecond, 10); err != nil {
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
	var tl Timeline
	if err := tl.RenderASCII(&bytes.Buffer{}, 0, 10); err == nil {
		t.Fatal("zero bucket accepted")
	}
	if err := tl.RenderASCII(&bytes.Buffer{}, time.Millisecond, 0); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestProfileAggregation(t *testing.T) {
	var tl Timeline
	tl.Add(device.Span{Name: "conv", Ctx: 1, Start: 0, End: 10 * time.Millisecond})
	tl.Add(device.Span{Name: "conv", Ctx: 1, Start: 20 * time.Millisecond, End: 50 * time.Millisecond})
	tl.Add(device.Span{Name: "bn", Ctx: 1, Start: 50 * time.Millisecond, End: 60 * time.Millisecond})
	tl.Add(device.Span{Name: "conv", Ctx: 2, Start: 0, End: 5 * time.Millisecond})
	stats := tl.Profile()
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
	var tl Timeline
	for i := 0; i < 5; i++ {
		tl.Add(device.Span{Name: "k", Ctx: i, Start: 0, End: time.Millisecond})
	}
	var buf bytes.Buffer
	if err := tl.WriteProfile(&buf, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
}

func TestProfileEmptyTimeline(t *testing.T) {
	var tl Timeline
	if got := tl.Profile(); len(got) != 0 {
		t.Fatalf("empty profile has %d rows", len(got))
	}
	var buf bytes.Buffer
	if err := tl.WriteProfile(&buf, 10); err != nil {
		t.Fatal(err)
	}
}
