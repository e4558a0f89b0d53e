package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"switchflow/internal/harness"
	"switchflow/internal/obs"
)

const traceTestWindow = 1500 * time.Millisecond

func renderTraces(t *testing.T, results []traceCell) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(results))
	for _, r := range results {
		var buf bytes.Buffer
		if err := obs.WriteChrome(&buf, r.Events); err != nil {
			t.Fatalf("WriteChrome(%s): %v", r.Sched, err)
		}
		out[r.Sched] = buf.Bytes()
	}
	return out
}

// The spine determinism guarantee: the chrome-trace export of the canned
// experiment is byte-identical whether the harness runs its cells
// serially or in parallel.
func TestChromeTraceSerialParallelByteIdentical(t *testing.T) {
	prev := harness.SetParallelism(1)
	defer harness.SetParallelism(prev)
	serial := renderTraces(t, chromeTrace(traceTestWindow))

	harness.SetParallelism(4)
	parallel := renderTraces(t, chromeTrace(traceTestWindow))

	for _, sched := range []string{"threaded", "switchflow"} {
		if !bytes.Equal(serial[sched], parallel[sched]) {
			t.Errorf("%s: serial and parallel chrome traces differ (%d vs %d bytes)",
				sched, len(serial[sched]), len(parallel[sched]))
		}
		if len(serial[sched]) == 0 {
			t.Errorf("%s: empty chrome trace", sched)
		}
	}
}

// The acceptance shape of the artifact: valid JSON, kernel spans from
// both contexts, and at least one Preempt decision under switchflow.
func TestChromeTraceContainsBothContextsAndPreemption(t *testing.T) {
	results := chromeTrace(traceTestWindow)
	var sf traceCell
	for _, r := range results {
		if r.Sched == "switchflow" {
			sf = r
		} else if r.Preempts != 0 {
			t.Errorf("%s: %d preemptions, want 0 (no preemption mechanism)", r.Sched, r.Preempts)
		}
	}
	if sf.Preempts == 0 {
		t.Fatal("switchflow co-run recorded no Preempt events despite the priority ladder")
	}
	if sf.Spans == 0 {
		t.Fatal("switchflow co-run recorded no kernel spans")
	}

	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, sf.Events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	ctxTracks := map[int]bool{}
	sawPreempt := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			ctxTracks[e.Tid] = true
		}
		if e.Ph == "i" && e.Name == "Preempt" {
			sawPreempt = true
		}
	}
	if len(ctxTracks) < 2 {
		t.Errorf("kernel spans on %d context tracks, want 2", len(ctxTracks))
	}
	if !sawPreempt {
		t.Error("no Preempt instant event in the chrome export")
	}
}
