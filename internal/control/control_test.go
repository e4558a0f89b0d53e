package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"switchflow/internal/scenario"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := NewServer("v100")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestSubmitAdvanceAndQuery(t *testing.T) {
	ts := newTestServer(t)

	var created scenario.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	if created.ID != 1 || created.Device != "gpu:0" {
		t.Fatalf("created = %+v", created)
	}

	var adv AdvanceResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 5000}, &adv); code != 200 {
		t.Fatalf("advance status = %d", code)
	}
	if adv.NowMillis != 5000 {
		t.Fatalf("NowMillis = %v, want 5000", adv.NowMillis)
	}

	var info scenario.JobInfo
	if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID), nil, &info); code != 200 {
		t.Fatalf("get status = %d", code)
	}
	if info.Iterations < 5 {
		t.Fatalf("job made %d iterations in 5s of virtual time", info.Iterations)
	}

	var status StatusInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/status", nil, &status); code != 200 {
		t.Fatalf("status code = %d", code)
	}
	if status.Jobs != 1 || len(status.GPUs) != 4 {
		t.Fatalf("status = %+v", status)
	}
	if status.GPUs[0].BusyMillis == 0 {
		t.Fatal("gpu:0 reported idle despite training")
	}
}

func TestPreemptionVisibleOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "train", Model: "VGG16", Batch: 32, Train: true, Priority: 1,
	}, nil)
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)
	var serve scenario.JobInfo
	doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "serve", Model: "ResNet50", Batch: 1, Priority: 2, ClosedLoop: true,
	}, &serve)
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 10000}, nil)

	var status StatusInfo
	doJSON(t, "GET", ts.URL+"/v1/status", nil, &status)
	if status.Preemptions == 0 {
		t.Fatal("no preemptions visible")
	}
	var info scenario.JobInfo
	doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, serve.ID), nil, &info)
	if info.Requests == 0 || info.P95Millis == 0 {
		t.Fatalf("serving stats empty: %+v", info)
	}
	if info.P95Millis > 300 {
		t.Fatalf("p95 = %.1f ms under SwitchFlow", info.P95Millis)
	}
}

func TestStopJob(t *testing.T) {
	ts := newTestServer(t)
	var created scenario.JobInfo
	doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "train", Model: "MobileNetV2", Batch: 16, Train: true,
	}, &created)
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)
	if code := doJSON(t, "DELETE", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID), nil, nil); code != 200 {
		t.Fatalf("stop status = %d", code)
	}
	var before scenario.JobInfo
	doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID), nil, &before)
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 5000}, nil)
	var after scenario.JobInfo
	doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID), nil, &after)
	if after.Iterations > before.Iterations+2 {
		t.Fatalf("stopped job advanced %d -> %d", before.Iterations, after.Iterations)
	}
}

func TestGroupSubmission(t *testing.T) {
	ts := newTestServer(t)
	reqs := []scenario.JobRequest{
		{Name: "m0", Model: "ResNet50", Batch: 32, Saturated: true},
		{Name: "m1", Model: "ResNet50", Batch: 32, Saturated: true},
	}
	var infos []scenario.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/groups", reqs, &infos); code != http.StatusCreated {
		t.Fatalf("group status = %d", code)
	}
	if len(infos) != 2 {
		t.Fatalf("group created %d jobs", len(infos))
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 10000}, nil)
	var listed []scenario.JobInfo
	doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &listed)
	if len(listed) != 2 || listed[0].Iterations == 0 {
		t.Fatalf("group jobs: %+v", listed)
	}
	if diff := listed[0].Iterations - listed[1].Iterations; diff < -1 || diff > 1 {
		t.Fatalf("lockstep violated over HTTP: %+v", listed)
	}
}

// TestStopGroupMember: DELETE on one member of a /v1/groups submission
// stops that member's iterations, and the other member keeps iterating.
func TestStopGroupMember(t *testing.T) {
	ts := newTestServer(t)
	reqs := []scenario.JobRequest{
		{Name: "m0", Model: "ResNet50", Batch: 32, Train: true},
		{Name: "m1", Model: "ResNet50", Batch: 32, Train: true},
	}
	var infos []scenario.JobInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/groups", reqs, &infos); code != http.StatusCreated {
		t.Fatalf("group status = %d", code)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)
	url := func(i int) string { return fmt.Sprintf("%s/v1/jobs/%d", ts.URL, infos[i].ID) }
	if code := doJSON(t, "DELETE", url(0), nil, nil); code != http.StatusOK {
		t.Fatalf("stop status = %d", code)
	}
	var before [2]scenario.JobInfo
	for i := range before {
		doJSON(t, "GET", url(i), nil, &before[i])
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 5000}, nil)
	var after [2]scenario.JobInfo
	for i := range after {
		doJSON(t, "GET", url(i), nil, &after[i])
	}
	if after[0].Iterations > before[0].Iterations+1 {
		t.Errorf("stopped member advanced %d -> %d", before[0].Iterations, after[0].Iterations)
	}
	if after[1].Iterations <= before[1].Iterations+10 {
		t.Errorf("the other member stalled: %d -> %d in 5 s", before[1].Iterations, after[1].Iterations)
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	var out map[string]string

	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{Name: "x", Model: "NoNet", Batch: 8}, &out); code != http.StatusConflict {
		t.Fatalf("unknown model status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/99", nil, &out); code != http.StatusNotFound {
		t.Fatalf("missing job status = %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: -1}, &out); code != http.StatusBadRequest {
		t.Fatalf("bad advance status = %d", code)
	}
	// Millisecond fields past time.Duration's range are refused, not
	// wrapped: forMillis 9223372036855 used to answer 200 and leave the
	// clock at zero.
	const huge = 9223372036855
	for _, tt := range []struct {
		name, path string
		body       any
	}{
		{"advance forMillis", "/v1/advance", AdvanceRequest{ForMillis: huge}},
		{"job serveEveryMillis", "/v1/jobs", scenario.JobRequest{Name: "s", Model: "ResNet50", Batch: 1, ServeEveryMS: huge}},
		{"job sloMillis", "/v1/jobs", scenario.JobRequest{Name: "s", Model: "ResNet50", Batch: 1, ServeEveryMS: 10, SLOMillis: huge}},
		{"job batchWaitMillis", "/v1/jobs", scenario.JobRequest{Name: "s", Model: "ResNet50", Batch: 1, MaxBatch: 4, BatchWaitMillis: -huge}},
		{"group sloMillis", "/v1/groups", []scenario.JobRequest{{Name: "s", Model: "ResNet50", Batch: 1, ServeEveryMS: 10, SLOMillis: huge}}},
	} {
		out = nil
		if code := doJSON(t, "POST", ts.URL+tt.path, tt.body, &out); code != http.StatusBadRequest || !strings.Contains(out["error"], "out of range") {
			t.Errorf("%s: status %d, error %q; want 400 out of range", tt.name, code, out["error"])
		}
	}
	// The largest valid advance from a clock past zero would pass the last
	// representable instant.
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 1}, nil)
	out = nil
	if code := doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: huge - 1}, &out); code != http.StatusBadRequest {
		t.Errorf("advance past the last instant: status %d, error %q", code, out["error"])
	}
	var st StatusInfo
	if doJSON(t, "GET", ts.URL+"/v1/status", nil, &st); st.NowMillis != 1 {
		t.Errorf("refused advances moved the clock to %v ms, want 1", st.NowMillis)
	}
	// A gang wider than its batch or the machine is a spec error, with
	// the status every spec error uses. The server must not build the
	// 1<<40-entry replica set: running out of memory is fatal.
	for _, batch := range []int{32, 1 << 40} {
		out = nil
		req := scenario.JobRequest{Name: "g", Model: "ResNet50", Batch: batch, Train: true, Gang: true, Replicas: 1 << 40}
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", req, &out); code != http.StatusConflict || !strings.Contains(out["error"], "invalid job spec") {
			t.Errorf("gang of 1<<40 replicas at batch %d: status %d, error %q; want %d invalid job spec",
				batch, code, out["error"], http.StatusConflict)
		}
	}
	var models []string
	if code := doJSON(t, "GET", ts.URL+"/v1/models", nil, &models); code != 200 || len(models) != 12 {
		t.Fatalf("models: %d %v", code, models)
	}
}

// Fallbacks that repeat or include the primary GPU are an invalid
// placement, rejected at the door with the status every spec error uses.
func TestBadFallbacksRejected(t *testing.T) {
	ts := newTestServer(t)
	for _, req := range []scenario.JobRequest{
		{Name: "dup", Model: "ResNet50", Batch: 8, Train: true, FallbackGPUs: []int{1, 1}},
		{Name: "self", Model: "ResNet50", Batch: 8, Train: true, GPU: 1, FallbackGPUs: []int{2, 1}},
	} {
		var out map[string]string
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", req, &out); code != http.StatusConflict {
			t.Errorf("%s: status = %d, want %d", req.Name, code, http.StatusConflict)
		}
		if !strings.Contains(out["error"], "invalid job spec") {
			t.Errorf("%s: error = %q, want an invalid job spec", req.Name, out["error"])
		}
	}
	var listed []scenario.JobInfo
	doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &listed)
	if len(listed) != 0 {
		t.Fatalf("rejected requests admitted jobs: %+v", listed)
	}
}

func TestBatchedServingOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	var created scenario.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "serve", Model: "ResNet50", Batch: 1, Priority: 1,
		ServeEveryMS: 10, SLOMillis: 500, MaxBatch: 8, BatchWaitMillis: 20,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 5000}, nil)

	var info scenario.JobInfo
	doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID), nil, &info)
	if info.Offered == 0 || info.Served == 0 || info.Batches == 0 {
		t.Fatalf("serving counters empty: %+v", info)
	}
	if info.Served+info.Shed > info.Offered {
		t.Fatalf("counters inconsistent: %+v", info)
	}
	if info.MeanBatch <= 1 {
		t.Fatalf("meanBatch = %.2f, want > 1 under a 100/s stream", info.MeanBatch)
	}
	if info.SLOAttainmentPct <= 0 || info.P99Millis < info.P95Millis {
		t.Fatalf("SLO/latency stats: %+v", info)
	}

	var status StatusInfo
	doJSON(t, "GET", ts.URL+"/v1/status", nil, &status)
	if status.OfferedRequests != info.Offered || status.ShedRequests != info.Shed {
		t.Fatalf("status aggregates %+v do not match job %+v", status, info)
	}
}

func TestPoissonArrivalsOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	var created scenario.JobInfo
	doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "serve", Model: "MobileNetV2", Batch: 1, Priority: 1,
		ServeEveryMS: 10, PoissonArrivals: true, ArrivalSeed: 7,
	}, &created)
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)
	var info scenario.JobInfo
	doJSON(t, "GET", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID), nil, &info)
	if info.Offered < 120 || info.Offered > 300 {
		t.Fatalf("Poisson stream offered %d in 2s at mean 100/s", info.Offered)
	}
	// An exact-period stream would offer exactly 200.
	if info.Offered == 200 {
		t.Fatal("arrival count is exactly periodic; Poisson flag ignored")
	}
}

func TestHandlerErrorPaths(t *testing.T) {
	ts := newTestServer(t)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/jobs", "{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed job JSON status = %d", code)
	}
	if code := post("/v1/groups", "[{]"); code != http.StatusBadRequest {
		t.Errorf("malformed group JSON status = %d", code)
	}
	if code := post("/v1/advance", "nope"); code != http.StatusBadRequest {
		t.Errorf("malformed advance JSON status = %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 0}, nil); code != http.StatusBadRequest {
		t.Errorf("zero advance status = %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs/banana", nil, nil); code != http.StatusNotFound {
		t.Errorf("non-numeric job id status = %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/jobs/42", nil, nil); code != http.StatusNotFound {
		t.Errorf("stop of missing job status = %d", code)
	}
	// A spec the facade rejects (batch wait without batching) surfaces as
	// a conflict, not a silent accept.
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "bad", Model: "ResNet50", Batch: 1, ServeEveryMS: 100, BatchWaitMillis: 5,
	}, nil); code != http.StatusConflict {
		t.Errorf("invalid batching spec status = %d", code)
	}
}

// TestConcurrentClients hammers the server from parallel goroutines; the
// per-server mutex must serialize every simulation touch (run under
// -race in CI).
func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
					Name: fmt.Sprintf("serve-%d-%d", i, k), Model: "MobileNetV2",
					Batch: 1, Priority: 1, ServeEveryMS: 50, MaxBatch: 4, BatchWaitMillis: 10,
				}, nil)
				doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 20}, nil)
				doJSON(t, "GET", ts.URL+"/v1/jobs", nil, nil)
				doJSON(t, "GET", ts.URL+"/v1/status", nil, nil)
			}
		}()
	}
	wg.Wait()
	var listed []scenario.JobInfo
	doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &listed)
	if len(listed) != 40 {
		t.Fatalf("listed %d jobs after 40 submissions", len(listed))
	}
	for i, info := range listed {
		if info.ID != i+1 {
			t.Fatalf("listing out of id order at %d: %+v", i, info)
		}
	}
}

func TestNewServerMachines(t *testing.T) {
	for _, machine := range []string{"v100", "2gpu", "tx2", "GTX 1080 Ti"} {
		if _, err := NewServer(machine); err != nil {
			t.Errorf("NewServer(%q): %v", machine, err)
		}
	}
	if _, err := NewServer("TPUv4"); err == nil {
		t.Error("NewServer(TPUv4) accepted")
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	raw := `{
		"machine": "v100",
		"scheduler": "switchflow",
		"durationMillis": 5000,
		"jobs": [
			{"name": "train", "model": "ResNet50", "batch": 16, "train": true, "priority": 1},
			{"name": "serve", "model": "MobileNetV2", "batch": 1, "priority": 2, "closedLoop": true}
		]
	}`
	sc, err := scenario.Parse(bytes.NewBufferString(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d jobs", len(res.Jobs))
	}
	if res.Jobs[0].Iterations == 0 {
		t.Fatal("training made no progress")
	}
	if res.Jobs[1].Requests == 0 {
		t.Fatal("serving made no progress")
	}
	if res.Preemptions == 0 {
		t.Fatal("no preemptions in collocation scenario")
	}
}

func TestScenarioWithGroup(t *testing.T) {
	raw := `{
		"machine": "v100",
		"durationMillis": 10000,
		"groups": [[
			{"name": "m0", "model": "ResNet50", "batch": 32, "saturated": true},
			{"name": "m1", "model": "ResNet50", "batch": 32, "saturated": true}
		]]
	}`
	sc, err := scenario.Parse(bytes.NewBufferString(raw))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 || res.Jobs[0].Iterations == 0 {
		t.Fatalf("group result: %+v", res.Jobs)
	}
	if diff := res.Jobs[0].Iterations - res.Jobs[1].Iterations; diff < -1 || diff > 1 {
		t.Fatalf("lockstep violated: %+v", res.Jobs)
	}
}

func TestScenarioValidation(t *testing.T) {
	if _, err := scenario.Parse(bytes.NewBufferString(`{"durationMillis": 0, "jobs": []}`)); err == nil {
		t.Fatal("empty scenario accepted")
	}
	if _, err := scenario.Parse(bytes.NewBufferString(`{"bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	sc := scenario.Scenario{Machine: "v100", Scheduler: "timeslice", DurationMillis: 100,
		Groups: [][]scenario.JobRequest{{{Name: "a", Model: "ResNet50", Batch: 8}}}}
	if _, err := scenario.Run(sc, nil); err == nil {
		t.Fatal("group under non-switchflow scheduler accepted")
	}
	sc = scenario.Scenario{Scheduler: "fifo", DurationMillis: 100,
		Jobs: []scenario.JobRequest{{Name: "a", Model: "ResNet50", Batch: 8}}}
	if _, err := scenario.Run(sc, nil); err == nil || err.Error() != `scenario: unknown scheduler "fifo"` {
		t.Fatalf("unknown scheduler: err = %v", err)
	}
}

func TestTraceAndMetricsEndpoints(t *testing.T) {
	ts := newTestServer(t)

	// Two training jobs with a priority gap: the higher one preempts, so
	// the spine records decisions alongside kernel spans.
	for i, prio := range []int{0, 1} {
		var created scenario.JobInfo
		code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
			Name: fmt.Sprintf("train-%d", i), Model: "ResNet50", Batch: 16,
			Train: true, Priority: prio,
		}, &created)
		if code != http.StatusCreated {
			t.Fatalf("submit status = %d", code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil); code != 200 {
		t.Fatalf("advance status = %d", code)
	}

	var metrics MetricsInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	if metrics.Events == 0 {
		t.Fatal("metrics reports no recorded events after a 2s co-run")
	}
	if metrics.ByKind["KernelSpan"] == 0 {
		t.Fatalf("no kernel spans in metrics: %+v", metrics.ByKind)
	}
	if metrics.Preemptions == 0 || metrics.ByKind["Preempt"] == 0 {
		t.Fatalf("priority ladder produced no preemptions: %+v", metrics)
	}

	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid chrome JSON: %v", err)
	}
	var spans, preempts int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X":
			spans++
		case e.Name == "Preempt":
			preempts++
		}
	}
	if spans == 0 || preempts == 0 {
		t.Fatalf("trace has %d spans and %d preempt instants, want both > 0", spans, preempts)
	}
}

func TestElasticLifecycleOverHTTP(t *testing.T) {
	ts := newTestServer(t)

	var created scenario.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1,
		VNodes: []int{0},
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	if created.VNodes != 1 || created.Binding == "" {
		t.Fatalf("created elastic job = %+v", created)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)

	// Grow to two virtual nodes.
	var info scenario.JobInfo
	url := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID)
	if code := doJSON(t, "POST", url+"/resize", ResizeRequest{VNodes: 2}, &info); code != 200 {
		t.Fatalf("resize status = %d", code)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)
	if code := doJSON(t, "GET", url, nil, &info); code != 200 {
		t.Fatalf("get status = %d", code)
	}
	if info.VNodes != 2 {
		t.Fatalf("after resize VNodes = %d, want 2; info = %+v", info.VNodes, info)
	}

	// Move the second virtual node to gpu:2 explicitly.
	if code := doJSON(t, "POST", url+"/rebind", RebindRequest{VNode: 1, GPU: 2}, &info); code != 200 {
		t.Fatalf("rebind status = %d", code)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)

	// Drain gpu:0: the job must rebind off it without restarting.
	var status StatusInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/gpus/0/drain", nil, &status); code != 200 {
		t.Fatalf("drain status = %d", code)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 4000}, nil)
	if code := doJSON(t, "GET", url, nil, &info); code != 200 {
		t.Fatalf("get status = %d", code)
	}
	if info.Crashed || info.Restarts != 0 {
		t.Fatalf("drained elastic job = %+v, want alive with 0 restarts", info)
	}
	if strings.Contains(info.Binding, "gpu:0") {
		t.Fatalf("binding %q still uses drained gpu:0", info.Binding)
	}

	// Undrain and confirm the spine recorded the elastic decisions.
	if code := doJSON(t, "POST", ts.URL+"/v1/gpus/0/undrain", nil, &status); code != 200 {
		t.Fatalf("undrain status = %d", code)
	}
	var metrics MetricsInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &metrics); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	for _, kind := range []string{"Bind", "Rebind", "Resize"} {
		if metrics.ByKind[kind] == 0 {
			t.Fatalf("no %s events on the spine: %+v", kind, metrics.ByKind)
		}
	}

	// Error paths: resizing a legacy job and draining a bogus GPU.
	var legacy scenario.JobInfo
	doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "legacy", Model: "ResNet50", Batch: 16, Train: true, Priority: 1, GPU: 1,
	}, &legacy)
	legacyURL := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, legacy.ID)
	if code := doJSON(t, "POST", legacyURL+"/resize", ResizeRequest{VNodes: 2}, nil); code != http.StatusConflict {
		t.Fatalf("resize of legacy job status = %d, want %d", code, http.StatusConflict)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/gpus/99/drain", nil, nil); code != http.StatusConflict {
		t.Fatalf("drain of gpu:99 status = %d, want %d", code, http.StatusConflict)
	}
}

// TestGangJobOverHTTP submits a data-parallel gang on the NVLink
// machine and checks the wire surface: width materializes into vnodes,
// the info payload reports gang, and a bad gang spec is a 400.
func TestGangJobOverHTTP(t *testing.T) {
	s, err := NewServer("nvlink")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var created scenario.JobInfo
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "ddp", Model: "ResNet50", Batch: 16, Train: true, Priority: 1,
		Gang: true, Replicas: 2,
	}, &created)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	if !created.Gang || created.VNodes != 2 {
		t.Fatalf("created gang job = %+v, want gang with 2 vnodes", created)
	}
	doJSON(t, "POST", ts.URL+"/v1/advance", AdvanceRequest{ForMillis: 2000}, nil)

	var info scenario.JobInfo
	url := fmt.Sprintf("%s/v1/jobs/%d", ts.URL, created.ID)
	if code := doJSON(t, "GET", url, nil, &info); code != 200 {
		t.Fatalf("get status = %d", code)
	}
	if !info.Gang || info.Iterations == 0 || info.Crashed {
		t.Fatalf("gang job after 2s = %+v, want progressing gang", info)
	}

	// A one-replica gang is an invalid spec, rejected at the door with
	// the same status the other spec errors use.
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", scenario.JobRequest{
		Name: "thin", Model: "ResNet50", Batch: 16, Train: true, Gang: true, Replicas: 1,
	}, nil); code != http.StatusConflict {
		t.Fatalf("one-replica gang status = %d, want %d", code, http.StatusConflict)
	}
}

// TestStrictDecoding: every POST route with a body answers 400 naming a
// field it does not know, instead of running with the field dropped.
func TestStrictDecoding(t *testing.T) {
	ts := newTestServer(t)
	for _, tt := range []struct{ path, body string }{
		{"/v1/jobs", `{"model":"ResNet50","batch":1,"closedLoop":true,"slo":200}`},
		{"/v1/groups", `[{"model":"ResNet50","batch":8,"saturated":true,"slo":200}]`},
		{"/v1/jobs/1/resize", `{"vnodes":2,"slo":200}`},
		{"/v1/jobs/1/rebind", `{"vnode":1,"gpu":2,"slo":200}`},
		{"/v1/advance", `{"forMillis":100,"slo":200}`},
	} {
		resp, err := http.Post(ts.URL+tt.path, "application/json", strings.NewReader(tt.body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out["error"], `unknown field "slo"`) {
			t.Errorf("POST %s: status %d, error %q; want 400 naming the unknown field", tt.path, resp.StatusCode, out["error"])
		}
	}
}

// TestReadmeBodies submits the README's serving and gang curl bodies.
func TestReadmeBodies(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"model":"ResNet50","batch":1,"priority":2,"serveEveryMillis":10,"poissonArrivals":true,
		  "sloMillis":200,"maxBatch":8,"batchWaitMillis":5}`,
		`{"model":"ResNet50","batch":32,"train":true,"priority":1,"gang":true,"replicas":2}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("status %d for %s", resp.StatusCode, body)
		}
	}
}
