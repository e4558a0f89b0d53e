package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"switchflow/internal/scenario"
)

// fuzzRoutes are every POST and DELETE route; %s is the path parameter.
var fuzzRoutes = []struct{ method, pattern string }{
	{"POST", "/v1/jobs"},
	{"DELETE", "/v1/jobs/%s"},
	{"POST", "/v1/jobs/%s/resize"},
	{"POST", "/v1/jobs/%s/rebind"},
	{"POST", "/v1/groups"},
	{"POST", "/v1/gpus/%s/drain"},
	{"POST", "/v1/gpus/%s/undrain"},
	{"POST", "/v1/advance"},
}

const (
	// maxFuzzRequests bounds one input's request sequence.
	maxFuzzRequests = 8
	// fuzzBudget bounds the virtual time one input may advance through,
	// in fuzzSlice steps, and fuzzMaxOffered the requests its jobs may be
	// offered (see fuzzServer.advance).
	fuzzBudget     = 2 * time.Second
	fuzzSlice      = time.Millisecond
	fuzzMaxOffered = 100_000
)

// fuzzRequest is one decoded request: a route index, the path parameter
// and the body.
type fuzzRequest struct {
	route       byte
	param, body []byte
}

// decodeRequests reads up to maxFuzzRequests requests from data. Each is
// a route byte (taken modulo the route count), a path parameter of up to
// 255 bytes behind a one-byte length, and a body of up to 65535 bytes
// behind a two-byte big-endian length. A short field takes what is left.
func decodeRequests(data []byte) []fuzzRequest {
	var reqs []fuzzRequest
	for len(data) > 0 && len(reqs) < maxFuzzRequests {
		r := fuzzRequest{route: data[0] % byte(len(fuzzRoutes))}
		r.param, data = chunk(data[1:], 1)
		r.body, data = chunk(data, 2)
		reqs = append(reqs, r)
	}
	return reqs
}

// chunk splits a field, its length in n big-endian bytes, off data.
func chunk(data []byte, n int) (field, rest []byte) {
	size := 0
	for _, b := range data[:min(n, len(data))] {
		size = size<<8 | int(b)
	}
	data = data[min(n, len(data)):]
	size = min(size, len(data))
	return data[:size], data[size:]
}

// encodeRequests is decodeRequests' inverse, for the seed corpus.
func encodeRequests(reqs ...fuzzRequest) []byte {
	var out []byte
	for _, r := range reqs {
		out = append(out, r.route, byte(len(r.param)))
		out = append(out, r.param...)
		out = append(out, byte(len(r.body)>>8), byte(len(r.body)))
		out = append(out, r.body...)
	}
	return out
}

// fuzzServer drives one server through its handler and tracks how far
// the input has advanced it.
type fuzzServer struct {
	t       *testing.T
	h       http.Handler
	now     time.Duration
	offered int
}

// send serves one request and fails on a status of 500 or more.
func (s *fuzzServer) send(method, target string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if w.Code >= 500 {
		s.t.Fatalf("%s %s %q: status %d: %s", method, target, body, w.Code, w.Body)
	}
	return w
}

// advance sends an advance body. One the server refuses as sent
// (malformed, not positive, out of range, or past the last representable
// instant) goes through unchanged, so every error path stays reachable.
// One it would run goes in fuzzSlice steps, up to fuzzBudget of virtual
// time per input, and stops once the jobs have been offered
// fuzzMaxOffered requests: an open-loop arrival period can be a
// nanosecond, and every arrival is an event. An advance with nothing
// left to run asks for zero, which the server refuses.
func (s *fuzzServer) advance(body []byte) {
	var req AdvanceRequest
	if scenario.DecodeStrict(bytes.NewReader(body), &req) != nil || req.ForMillis <= 0 ||
		int64(req.ForMillis) > math.MaxInt64/int64(time.Millisecond) ||
		time.Duration(req.ForMillis)*time.Millisecond > math.MaxInt64-s.now {
		s.send("POST", "/v1/advance", body)
		return
	}
	end := min(s.now+time.Duration(req.ForMillis)*time.Millisecond, fuzzBudget)
	if s.now >= end || s.offered >= fuzzMaxOffered {
		s.send("POST", "/v1/advance", []byte(`{"forMillis":0}`))
		return
	}
	for ; s.now < end && s.offered < fuzzMaxOffered; s.now += fuzzSlice {
		s.send("POST", "/v1/advance", []byte(fmt.Sprintf(`{"forMillis":%d}`, fuzzSlice/time.Millisecond)))
		var st StatusInfo
		if err := json.Unmarshal(s.send("GET", "/v1/status", nil).Body.Bytes(), &st); err != nil {
			s.t.Fatal(err)
		}
		s.offered = st.OfferedRequests
	}
}

// FuzzControlAPI sends a short decoded sequence of requests to the POST
// and DELETE routes of a fresh server. Whatever the input, the server
// must not panic and must answer every request below 500.
func FuzzControlAPI(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(encodeRequests(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := NewServer("v100")
		if err != nil {
			t.Fatal(err)
		}
		s := &fuzzServer{t: t, h: srv.Handler()}
		for _, r := range decodeRequests(data) {
			route := fuzzRoutes[r.route]
			switch {
			case route.pattern == "/v1/advance":
				s.advance(r.body)
			case strings.Contains(route.pattern, "%s"):
				s.send(route.method, fmt.Sprintf(route.pattern, url.PathEscape(string(r.param))), r.body)
			default:
				s.send(route.method, route.pattern, r.body)
			}
		}
	})
}

// fuzzSeeds are the request bodies of the server's error-path tests and
// the README, plus one elastic job taken through every job and GPU route.
func fuzzSeeds(f *testing.F) [][]fuzzRequest {
	route := func(method, pattern string) byte {
		for i, r := range fuzzRoutes {
			if r.method == method && r.pattern == pattern {
				return byte(i)
			}
		}
		f.Fatalf("no route %s %s", method, pattern)
		return 0
	}
	jobs, stop, resize, rebind := route("POST", "/v1/jobs"), route("DELETE", "/v1/jobs/%s"),
		route("POST", "/v1/jobs/%s/resize"), route("POST", "/v1/jobs/%s/rebind")
	groups, drain, undrain, advance := route("POST", "/v1/groups"), route("POST", "/v1/gpus/%s/drain"),
		route("POST", "/v1/gpus/%s/undrain"), route("POST", "/v1/advance")
	req := func(route byte, param string, body any) fuzzRequest {
		raw, ok := body.(string)
		if !ok {
			b, err := json.Marshal(body)
			if err != nil {
				f.Fatal(err)
			}
			raw = string(b)
		}
		return fuzzRequest{route: route, param: []byte(param), body: []byte(raw)}
	}
	const huge = 9223372036855
	return [][]fuzzRequest{
		// TestErrorPaths.
		{
			req(jobs, "", scenario.JobRequest{Name: "x", Model: "NoNet", Batch: 8}),
			req(advance, "", AdvanceRequest{ForMillis: -1}),
			req(advance, "", AdvanceRequest{ForMillis: huge}),
			req(jobs, "", scenario.JobRequest{Name: "s", Model: "ResNet50", Batch: 1, ServeEveryMS: huge}),
			req(jobs, "", scenario.JobRequest{Name: "s", Model: "ResNet50", Batch: 1, ServeEveryMS: 10, SLOMillis: huge}),
			req(jobs, "", scenario.JobRequest{Name: "s", Model: "ResNet50", Batch: 1, MaxBatch: 4, BatchWaitMillis: -huge}),
			req(groups, "", []scenario.JobRequest{{Name: "s", Model: "ResNet50", Batch: 1, ServeEveryMS: 10, SLOMillis: huge}}),
		},
		{
			req(advance, "", AdvanceRequest{ForMillis: 1}),
			req(advance, "", AdvanceRequest{ForMillis: huge - 1}),
			req(jobs, "", scenario.JobRequest{Name: "g", Model: "ResNet50", Batch: 32, Train: true, Gang: true, Replicas: 1 << 40}),
			req(jobs, "", scenario.JobRequest{Name: "g", Model: "ResNet50", Batch: 1 << 40, Train: true, Gang: true, Replicas: 1 << 40}),
		},
		// TestHandlerErrorPaths.
		{
			req(jobs, "", "{not json"),
			req(groups, "", "[{]"),
			req(advance, "", "nope"),
			req(advance, "", AdvanceRequest{ForMillis: 0}),
			req(stop, "42", ""),
			req(stop, "banana", ""),
			req(jobs, "", scenario.JobRequest{Name: "bad", Model: "ResNet50", Batch: 1, ServeEveryMS: 100, BatchWaitMillis: 5}),
		},
		// TestReadmeBodies, then time for both jobs to run.
		{
			req(jobs, "", `{"model":"ResNet50","batch":1,"priority":2,"serveEveryMillis":10,"poissonArrivals":true,
		  "sloMillis":200,"maxBatch":8,"batchWaitMillis":5}`),
			req(jobs, "", `{"model":"ResNet50","batch":32,"train":true,"priority":1,"gang":true,"replicas":2}`),
			req(advance, "", AdvanceRequest{ForMillis: 500}),
			req(stop, "2", ""),
		},
		// A one-nanosecond arrival period: the offered-request bound, not
		// the virtual-time budget, ends the advance.
		{
			req(jobs, "", scenario.JobRequest{Name: "flood", Model: "MobileNetV2", Batch: 1, Priority: 2, ServeEveryMS: 1e-6}),
			req(advance, "", AdvanceRequest{ForMillis: 2000}),
			req(advance, "", AdvanceRequest{ForMillis: 1}),
		},
		// A huge MaxBatch under an SLO, priced on the first arrival.
		{
			req(jobs, "", scenario.JobRequest{Name: "wide", Model: "MobileNetV2", Batch: 1, Priority: 2,
				ServeEveryMS: 10, SLOMillis: 1, MaxBatch: 100_000}),
			req(advance, "", AdvanceRequest{ForMillis: 50}),
		},
		// An elastic job through every job and GPU route.
		{
			req(jobs, "", scenario.JobRequest{Name: "train", Model: "ResNet50", Batch: 16, Train: true, Priority: 1, VNodes: []int{0}}),
			req(advance, "", AdvanceRequest{ForMillis: 100}),
			req(resize, "1", ResizeRequest{VNodes: 2}),
			req(drain, "0", ""),
			req(undrain, "0", ""),
			req(rebind, "1", RebindRequest{VNode: 1, GPU: 0}),
			req(advance, "", AdvanceRequest{ForMillis: 100}),
			req(stop, "1", ""),
		},
	}
}
