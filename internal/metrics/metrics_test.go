package metrics

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestLatencyPercentiles(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{0, time.Millisecond},
	}
	for _, tt := range tests {
		if got := l.Percentile(tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestLatencyUnsortedInput(t *testing.T) {
	var l Latency
	for _, ms := range []int{30, 10, 20} {
		l.Add(time.Duration(ms) * time.Millisecond)
	}
	if got := l.Max(); got != 30*time.Millisecond {
		t.Fatalf("Max() = %v", got)
	}
	if got := l.Mean(); got != 20*time.Millisecond {
		t.Fatalf("Mean() = %v", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Percentile(95) != 0 || l.Mean() != 0 || l.Max() != 0 {
		t.Fatal("empty latency should report zeros")
	}
	if l.Count() != 0 {
		t.Fatal("empty latency count != 0")
	}
}

func TestLatencyAddAfterQuery(t *testing.T) {
	var l Latency
	l.Add(10 * time.Millisecond)
	_ = l.Percentile(50)
	l.Add(time.Millisecond)
	if got := l.Percentile(0); got != time.Millisecond {
		t.Fatalf("Percentile(0) after late add = %v, want 1ms", got)
	}
}

// Property: the percentile function is monotone in p and brackets the
// sample range.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latency
		for _, v := range raw {
			l.Add(time.Duration(v) * time.Microsecond)
		}
		sorted := append([]uint16(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := l.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return l.Percentile(0) == time.Duration(sorted[0])*time.Microsecond &&
			l.Max() == time.Duration(sorted[len(sorted)-1])*time.Microsecond
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReservoirBoundsMemory is the unbounded-growth regression: a
// long-running serving job must not retain every latency sample.
func TestReservoirBoundsMemory(t *testing.T) {
	var l Latency
	const n = 4 * DefaultReservoir
	for i := 0; i < n; i++ {
		l.Add(time.Duration(i+1) * time.Microsecond)
	}
	if len(l.samples) > DefaultReservoir {
		t.Fatalf("reservoir holds %d samples, cap %d", len(l.samples), DefaultReservoir)
	}
	if l.Count() != n {
		t.Fatalf("Count() = %d, want %d (total observed, not reservoir size)", l.Count(), n)
	}
	if l.Max() != n*time.Microsecond {
		t.Fatalf("Max = %v, want the exact extreme", l.Max())
	}
	wantMean := time.Duration(n) * time.Duration(n+1) / 2 * time.Microsecond / time.Duration(n)
	if l.Mean() != wantMean {
		t.Fatalf("Mean() = %v, want exact %v", l.Mean(), wantMean)
	}
	// The median of 1..n microseconds: the reservoir estimate must land
	// within a few percent of n/2.
	med := l.Percentile(50)
	lo := time.Duration(45*n/100) * time.Microsecond
	hi := time.Duration(55*n/100) * time.Microsecond
	if med < lo || med > hi {
		t.Fatalf("reservoir median = %v, want within [%v, %v]", med, lo, hi)
	}
}

// TestReservoirDeterministic: identical sample streams keep identical
// reservoirs (simulation determinism must survive the sampling).
func TestReservoirDeterministic(t *testing.T) {
	run := func() time.Duration {
		var l Latency
		for i := 0; i < 3*DefaultReservoir; i++ {
			l.Add(time.Duration(i%977) * time.Microsecond)
		}
		return l.Percentile(95)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("reservoir not deterministic: %v vs %v", a, b)
	}
}

func TestServingCounters(t *testing.T) {
	c := ServingCounters{Offered: 10, Shed: 2, Served: 8, SLOMet: 6, Batches: 4}
	if got := c.AttainmentPct(); got != 75 {
		t.Fatalf("AttainmentPct = %v, want 75", got)
	}
	if got := c.MeanBatch(); got != 2 {
		t.Fatalf("MeanBatch = %v, want 2", got)
	}
	var zero ServingCounters
	if zero.AttainmentPct() != 0 || zero.MeanBatch() != 0 {
		t.Fatal("zero counters must report zero ratios")
	}
	sum := c
	sum.Add(ServingCounters{Offered: 1, Shed: 1, Batches: 1})
	if sum.Offered != 11 || sum.Shed != 3 || sum.Batches != 5 {
		t.Fatalf("Add = %+v", sum)
	}
}
