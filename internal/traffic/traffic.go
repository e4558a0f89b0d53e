// Package traffic is the trace-driven open-loop load layer of the fleet
// scenario: millions of simulated clients, aggregated into per-epoch
// arrival batches, hitting a multi-tenant serving fleet. The paper's
// deployment story (§1-2) is inference services collocating with training
// because preemption bounds the tails; this package supplies the "heavy
// traffic from millions of users" side of that story.
//
// The aggregate request rate is shaped by a diurnal sinusoid (a compressed
// day) multiplied by flash-crowd spikes (trapezoidal ramp/hold/decay
// envelopes), and split across tenants by heavy-tailed Zipf weights — a
// few tenants carry most of the load, a long tail carries the rest.
// Clients are never simulated individually: a Generator turns the rate
// integral over an epoch window into a Poisson arrival count per tenant,
// so cost scales with epochs and request rate, not client population.
//
// Determinism contract: every tenant owns a seeded RNG stream advanced
// only by that tenant's draws, and Batch windows must be requested in
// nondecreasing, non-overlapping order (the cluster's barrier hooks do
// exactly that, serially, at the same virtual instants whether the node
// engines run on one worker or many). Identical profiles therefore yield
// byte-identical arrival sequences, serial or parallel.
package traffic

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"switchflow/internal/sim"
)

// Tier is a tenant's SLO class. Higher tiers buy tighter latency
// objectives and higher scheduler priority (gold preempts silver preempts
// bronze preempts background training).
type Tier int

// SLO tiers, bronze lowest.
const (
	TierBronze Tier = iota
	TierSilver
	TierGold
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierGold:
		return "gold"
	case TierSilver:
		return "silver"
	default:
		return "bronze"
	}
}

// SLO is the tier's per-request latency objective: admission control
// sheds beyond it, and completions within it count toward attainment.
func (t Tier) SLO() time.Duration {
	switch t {
	case TierGold:
		return 150 * time.Millisecond
	case TierSilver:
		return 300 * time.Millisecond
	default:
		return 600 * time.Millisecond
	}
}

// Priority maps the tier onto the scheduler's preemption ladder, above
// background training (which conventionally runs at priority 1).
func (t Tier) Priority() int {
	switch t {
	case TierGold:
		return 4
	case TierSilver:
		return 3
	default:
		return 2
	}
}

// Tenant is one service of the multi-tenant fleet.
type Tenant struct {
	// ID names the tenant ("t00-gold").
	ID string
	// Tier is the tenant's SLO class.
	Tier Tier
	// Model is the model the tenant serves (a zoo name).
	Model string
	// Weight is the tenant's relative share of the aggregate request rate;
	// the Generator normalizes weights across tenants.
	Weight float64
	// Seed decorrelates the tenant's arrival stream from its neighbours'.
	Seed int64
}

// Spike is one flash crowd: a trapezoidal rate multiplier that ramps from
// 1 to Magnitude over Ramp, holds for Hold, and decays back over Decay.
type Spike struct {
	// Start is when the ramp begins.
	Start time.Duration
	// Ramp, Hold, Decay shape the trapezoid.
	Ramp  time.Duration
	Hold  time.Duration
	Decay time.Duration
	// Magnitude is the peak rate multiplier (>= 1).
	Magnitude float64
}

// multiplier evaluates the spike envelope at t.
func (s Spike) multiplier(t time.Duration) float64 {
	if s.Magnitude <= 1 || t <= s.Start {
		return 1
	}
	el := t - s.Start
	switch {
	case el < s.Ramp:
		return 1 + (s.Magnitude-1)*float64(el)/float64(s.Ramp)
	case el < s.Ramp+s.Hold:
		return s.Magnitude
	case el < s.Ramp+s.Hold+s.Decay:
		rem := el - s.Ramp - s.Hold
		return s.Magnitude - (s.Magnitude-1)*float64(rem)/float64(s.Decay)
	default:
		return 1
	}
}

// Profile describes the full load shape of one fleet scenario.
type Profile struct {
	// Clients is the simulated client population (aggregated, never
	// individually simulated); RPSPerClient its mean per-client request
	// rate at the diurnal baseline. Their product is the base rate.
	Clients      int
	RPSPerClient float64
	// DiurnalPeriod compresses a day into virtual time (0 disables the
	// sinusoid); DiurnalMin is the trough rate as a fraction of the
	// baseline (1 flattens the curve). The baseline is the sinusoid peak.
	DiurnalPeriod time.Duration
	DiurnalMin    float64
	// Spikes are flash crowds layered multiplicatively on the diurnal
	// curve, applied to every tenant.
	Spikes []Spike
	// Tenants is the tenant mix (see SyntheticTenants).
	Tenants []Tenant
	// Seed decorrelates whole profiles; each tenant stream is seeded by
	// Seed combined with the tenant's own Seed.
	Seed int64
}

// BaseRPS is the aggregate request rate at the diurnal baseline.
func (p Profile) BaseRPS() float64 { return float64(p.Clients) * p.RPSPerClient }

// Rate is the aggregate request rate at virtual time t: base x diurnal x
// every spike envelope.
func (p Profile) Rate(t time.Duration) float64 {
	r := p.BaseRPS()
	if p.DiurnalPeriod > 0 && p.DiurnalMin < 1 {
		// Sinusoid between DiurnalMin and 1, peaking a quarter-period in so
		// a run starting at t=0 starts mid-slope.
		phase := 2 * math.Pi * float64(t) / float64(p.DiurnalPeriod)
		mid := (1 + p.DiurnalMin) / 2
		amp := (1 - p.DiurnalMin) / 2
		r *= mid + amp*math.Sin(phase)
	}
	for _, s := range p.Spikes {
		r *= s.multiplier(t)
	}
	return r
}

// SyntheticTenants builds n tenants with Zipf(1.1) heavy-tailed traffic
// weights: tenant i carries weight 1/(i+1)^1.1, so the head of the
// distribution dominates. The heaviest fifth are gold, the next third
// silver, the tail bronze — paying tenants are the busy ones — and models
// cycle through the serving zoo heaviest-first. Seeds derive from seed so
// two profiles with different seeds draw decorrelated streams.
func SyntheticTenants(n int, seed int64) []Tenant {
	models := []string{"ResNet50", "MobileNetV2", "InceptionV3", "DenseNet121", "NASNetMobile"}
	tenants := make([]Tenant, n)
	for i := range tenants {
		tier := TierBronze
		switch {
		case i < (n+4)/5:
			tier = TierGold
		case i < (n+4)/5+(n+2)/3:
			tier = TierSilver
		}
		tenants[i] = Tenant{
			ID:     fmt.Sprintf("t%02d-%s", i, tier),
			Tier:   tier,
			Model:  models[i%len(models)],
			Weight: 1 / math.Pow(float64(i+1), 1.1),
			Seed:   seed + int64(i)*7919,
		}
	}
	return tenants
}

// Arrival is one request: which tenant it belongs to, which of the
// tenant's (aggregated) clients sent it, and when it lands.
type Arrival struct {
	// Tenant indexes Profile.Tenants.
	Tenant int
	// Client is a pseudo-client identity drawn from the tenant's client
	// population — the consistent-hash router's affinity key.
	Client uint64
	// At is the arrival instant.
	At time.Duration
}

// Generator turns a Profile into deterministic per-epoch arrival batches.
type Generator struct {
	profile Profile
	share   []float64 // normalized tenant weights
	rngs    []*rand.Rand
	from    time.Duration // next window must start here
	batch   []Arrival     // Batch's reused result buffer
}

// NewGenerator validates the profile and seeds one RNG stream per tenant.
func NewGenerator(p Profile) (*Generator, error) {
	if p.Clients <= 0 || p.RPSPerClient <= 0 {
		return nil, fmt.Errorf("traffic: profile needs Clients > 0 and RPSPerClient > 0")
	}
	if len(p.Tenants) == 0 {
		return nil, fmt.Errorf("traffic: profile has no tenants")
	}
	if p.DiurnalMin < 0 || p.DiurnalMin > 1 {
		return nil, fmt.Errorf("traffic: DiurnalMin %v outside [0, 1]", p.DiurnalMin)
	}
	g := &Generator{profile: p}
	total := 0.0
	for i, t := range p.Tenants {
		if t.Weight <= 0 {
			return nil, fmt.Errorf("traffic: tenant %d (%s) weight must be positive", i, t.ID)
		}
		total += t.Weight
	}
	for _, t := range p.Tenants {
		g.share = append(g.share, t.Weight/total)
		g.rngs = append(g.rngs, rand.New(rand.NewSource(p.Seed^t.Seed)))
	}
	return g, nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.profile }

// Batch draws every arrival in the window (from, to], sorted by (time,
// tenant, client). Windows must be requested in order without gaps or
// overlap — each tenant's RNG stream advances with its draws, so the
// sequence of windows is part of the deterministic replay state. The
// returned slice is the generator's own buffer: it is valid until the
// next call.
func (g *Generator) Batch(from, to time.Duration) []Arrival {
	if from != g.from {
		panic(fmt.Sprintf("traffic: Batch(%v, %v) out of order; next window starts at %v", from, to, g.from))
	}
	if to <= from {
		panic(fmt.Sprintf("traffic: Batch window (%v, %v] is empty", from, to))
	}
	g.from = to
	dt := to - from
	// Midpoint rate x window approximates the rate integral; epochs are
	// milliseconds against diurnal periods of tens of seconds, so the
	// error is negligible and the evaluation stays cheap.
	rate := g.profile.Rate(from + dt/2)
	out := g.batch[:0]
	for i := range g.profile.Tenants {
		rng := g.rngs[i]
		mean := g.share[i] * rate * dt.Seconds()
		n := poisson(rng, mean)
		for k := 0; k < n; k++ {
			// to - u*dt lands in (from, to]: strictly after the barrier that
			// schedules the batch, at or before the next one.
			at := to - sim.Nanos(rng.Float64()*float64(dt))
			out = append(out, Arrival{Tenant: i, Client: rng.Uint64(), At: at})
		}
	}
	slices.SortFunc(out, func(a, b Arrival) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Tenant, b.Tenant); c != 0 {
			return c
		}
		return cmp.Compare(a.Client, b.Client)
	})
	g.batch = out
	return out
}

// poisson draws a Poisson variate by inversion for small means and a
// normal approximation beyond — epoch x rate products stay small in
// practice, but a caller with second-long epochs must not overflow the
// inversion's e^-mean term.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	n, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return n
		}
		n++
	}
}
