package traffic

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func testProfile() Profile {
	return Profile{
		Clients:       200_000,
		RPSPerClient:  0.002, // 400 rps base
		DiurnalPeriod: 60 * time.Second,
		DiurnalMin:    0.4,
		Spikes: []Spike{{
			Start: 20 * time.Second, Ramp: 2 * time.Second,
			Hold: 5 * time.Second, Decay: 3 * time.Second, Magnitude: 4,
		}},
		Tenants: SyntheticTenants(8, 42),
		Seed:    1,
	}
}

func TestSyntheticTenantsHeavyTailAndTiers(t *testing.T) {
	tenants := SyntheticTenants(10, 7)
	if len(tenants) != 10 {
		t.Fatalf("got %d tenants", len(tenants))
	}
	for i := 1; i < len(tenants); i++ {
		if tenants[i].Weight >= tenants[i-1].Weight {
			t.Fatalf("weights not strictly decreasing at %d: %v >= %v", i, tenants[i].Weight, tenants[i-1].Weight)
		}
	}
	// Head dominates: tenant 0 alone outweighs the bottom half.
	var tail float64
	for _, tn := range tenants[5:] {
		tail += tn.Weight
	}
	if tenants[0].Weight <= tail {
		t.Fatalf("head weight %v does not dominate tail %v", tenants[0].Weight, tail)
	}
	if tenants[0].Tier != TierGold {
		t.Fatalf("heaviest tenant tier = %v, want gold", tenants[0].Tier)
	}
	if tenants[len(tenants)-1].Tier != TierBronze {
		t.Fatalf("lightest tenant tier = %v, want bronze", tenants[len(tenants)-1].Tier)
	}
	if !(TierGold.SLO() < TierSilver.SLO() && TierSilver.SLO() < TierBronze.SLO()) {
		t.Fatal("tier SLOs not ordered gold < silver < bronze")
	}
	if !(TierGold.Priority() > TierSilver.Priority() && TierSilver.Priority() > TierBronze.Priority()) {
		t.Fatal("tier priorities not ordered gold > silver > bronze")
	}
}

func TestRateShape(t *testing.T) {
	p := testProfile()
	base := p.BaseRPS()
	if base != 400 {
		t.Fatalf("base rps = %v, want 400", base)
	}
	// The spike peak multiplies whatever the diurnal curve gives by 4.
	atPeak := p.Rate(24 * time.Second)
	noSpike := p
	noSpike.Spikes = nil
	if want := noSpike.Rate(24*time.Second) * 4; math.Abs(atPeak-want) > 1e-6 {
		t.Fatalf("spike-hold rate %v, want %v", atPeak, want)
	}
	// Diurnal trough (3/4 period) sits at DiurnalMin x base.
	trough := noSpike.Rate(45 * time.Second)
	if want := base * 0.4; math.Abs(trough-want) > 1e-6 {
		t.Fatalf("trough rate %v, want %v", trough, want)
	}
	// Before the spike starts the envelope is inert.
	if got := p.Rate(10 * time.Second); got != noSpike.Rate(10*time.Second) {
		t.Fatalf("pre-spike rate %v differs from diurnal %v", got, noSpike.Rate(10*time.Second))
	}
}

func TestBatchDeterministicReplay(t *testing.T) {
	g1, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	epoch := 5 * time.Millisecond
	total := 0
	for at := time.Duration(0); at < 2*time.Second; at += epoch {
		b1 := g1.Batch(at, at+epoch)
		b2 := g2.Batch(at, at+epoch)
		if !reflect.DeepEqual(b1, b2) {
			t.Fatalf("window (%v, %v]: batches diverge", at, at+epoch)
		}
		for i, a := range b1 {
			if a.At <= at || a.At > at+epoch {
				t.Fatalf("arrival %d at %v outside window (%v, %v]", i, a.At, at, at+epoch)
			}
			if i > 0 && b1[i-1].At > a.At {
				t.Fatalf("arrivals not time-sorted at %d", i)
			}
			if a.Tenant < 0 || a.Tenant >= 8 {
				t.Fatalf("arrival tenant %d out of range", a.Tenant)
			}
		}
		total += len(b1)
	}
	// ~400 rps x 2s = ~800 arrivals; Poisson noise stays well inside 3x.
	if total < 400 || total > 1600 {
		t.Fatalf("2s of arrivals = %d, want ~800", total)
	}
}

// TestBatchAllocFree: once the generator's buffer has grown to a
// window's arrival count, drawing further windows allocates nothing.
func TestBatchAllocFree(t *testing.T) {
	g, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	// A one-second window (~400 arrivals) grows the buffer past any
	// 5 ms window's count.
	from := time.Second
	if n := len(g.Batch(0, from)); n < 100 {
		t.Fatalf("1s window drew %d arrivals, want ~400", n)
	}
	epoch := 5 * time.Millisecond
	drawn := 0
	allocs := testing.AllocsPerRun(200, func() {
		drawn += len(g.Batch(from, from+epoch))
		from += epoch
	})
	if drawn == 0 {
		t.Fatal("no arrivals drawn in the measured windows")
	}
	if allocs != 0 {
		t.Fatalf("Batch: %v allocs per window, want 0", allocs)
	}
}

func TestBatchRejectsOutOfOrderWindows(t *testing.T) {
	g, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	g.Batch(0, 5*time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping Batch window did not panic")
		}
	}()
	g.Batch(0, 5*time.Millisecond)
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Profile{}); err == nil {
		t.Fatal("empty profile accepted")
	}
	p := testProfile()
	p.Tenants = nil
	if _, err := NewGenerator(p); err == nil {
		t.Fatal("tenantless profile accepted")
	}
	p = testProfile()
	p.Tenants[0].Weight = 0
	if _, err := NewGenerator(p); err == nil {
		t.Fatal("zero-weight tenant accepted")
	}
	p = testProfile()
	p.DiurnalMin = 1.5
	if _, err := NewGenerator(p); err == nil {
		t.Fatal("DiurnalMin > 1 accepted")
	}
}

func TestPoissonMean(t *testing.T) {
	g, err := NewGenerator(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	rng := g.rngs[0]
	for _, mean := range []float64{0, 0.5, 4, 40, 2000} {
		n, draws := 0, 2000
		for i := 0; i < draws; i++ {
			n += poisson(rng, mean)
		}
		got := float64(n) / float64(draws)
		if math.Abs(got-mean) > 0.1*mean+0.2 {
			t.Fatalf("poisson(%v) sample mean %v", mean, got)
		}
	}
}
