// The fleet front-end: a trace-driven router that takes the traffic
// layer's per-epoch arrival batches and spreads them over per-tenant
// replica sets at shard barriers. All routing state lives on the calling
// goroutine and every decision happens at a barrier with the node engines
// stopped, so fleet traces stay byte-identical serial vs parallel.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"switchflow/internal/metrics"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// RouteStrategy selects how a tenant's requests spread over its replicas.
type RouteStrategy int

const (
	// RouteHash is consistent hashing: each (aggregated) client sticks to
	// the ring successor of its hash, so replica-set changes only remap
	// the keys adjacent to the change.
	RouteHash RouteStrategy = iota
	// RouteLeastLoaded sends each request to the live replica with the
	// fewest outstanding requests (counting this epoch's routed share).
	RouteLeastLoaded
)

// String names the strategy.
func (s RouteStrategy) String() string {
	if s == RouteLeastLoaded {
		return "least-loaded"
	}
	return "hash"
}

// Service is one tenant's replica set behind the front-end.
type Service struct {
	tenant   traffic.Tenant
	template workload.Config
	replicas []*JobHandle
	seq      int // next replica suffix

	dropped int // arrivals with no live replica (router-level shed)

	// Routing state reused across barriers (see Frontend.route): this
	// epoch's live replicas, and the hash ring, rebuilt only when the
	// live set changes.
	live     []liveReplica
	ring     hashRing
	rebuilds int // ring rebuilds, for tests

	// Autoscaler bookkeeping (see autoscale.go).
	hotFor, idleFor       int
	cooldownUntil         time.Duration
	lastOffered, lastShed int
	scaleOuts, scaleIns   int
}

// Tenant returns the tenant this service fronts.
func (s *Service) Tenant() traffic.Tenant { return s.tenant }

// Replicas returns the tenant's submitted replicas, oldest first
// (including queued and stopped handles).
func (s *Service) Replicas() []*JobHandle {
	out := make([]*JobHandle, len(s.replicas))
	copy(out, s.replicas)
	return out
}

// Dropped counts the tenant's requests that arrived with no live replica
// to take them.
func (s *Service) Dropped() int { return s.dropped }

// ScaleOuts and ScaleIns count autoscaler actions on this service.
func (s *Service) ScaleOuts() int { return s.scaleOuts }
func (s *Service) ScaleIns() int  { return s.scaleIns }

// Counters aggregates the replicas' serving outcomes; router-level drops
// count as offered-and-shed, so shed rate reflects what clients saw.
func (s *Service) Counters() metrics.ServingCounters {
	var sum metrics.ServingCounters
	for _, h := range s.replicas {
		if h.Job != nil {
			sum.Add(h.Job.ServingStats())
		}
	}
	sum.Offered += s.dropped
	sum.Shed += s.dropped
	return sum
}

// desired counts replicas not yet retired (live or still queued) — the
// autoscaler's notion of current size. A crashed replica is retired too:
// it never serves again, so counting it would pin a tenant whose replicas
// crash below the size its load asks for.
func (s *Service) desired() int {
	n := 0
	for _, h := range s.replicas {
		if !h.stopped && (h.Job == nil || !h.Job.Crashed()) {
			n++
		}
	}
	return n
}

// Frontend routes trace-driven traffic onto the fleet. At every cluster
// barrier it pulls the next epoch's arrival batch from the generator,
// picks a replica per arrival, and schedules the request onto the
// replica's node engine at its arrival instant.
type Frontend struct {
	c        *Cluster
	gen      *traffic.Generator
	strategy RouteStrategy
	services []*Service
	scaler   *Autoscaler

	watermark time.Duration // arrivals generated up to here
	started   bool

	routed, dropped int
}

// DefaultServiceConfig is the replica template tenants get unless the
// caller supplies their own: single-image requests with tier SLO and
// priority, dynamic batching up to 4 requests, and the ~10 ms per-image
// decode the paper's serving setups pay.
func DefaultServiceConfig(t traffic.Tenant) (workload.Config, error) {
	spec, err := models.ByName(t.Model)
	if err != nil {
		return workload.Config{}, err
	}
	return workload.Config{
		Model:       spec,
		Batch:       1,
		Kind:        workload.KindServing,
		Priority:    t.Tier.Priority(),
		SLO:         t.Tier.SLO(),
		MaxBatch:    4,
		BatchWait:   2 * time.Millisecond,
		PerImageCPU: 10 * time.Millisecond,
	}, nil
}

// NewFrontend builds the router over the cluster for the generator's
// tenants. template shapes each tenant's replica config (nil uses
// DefaultServiceConfig; Name is overwritten per replica). The front-end
// hooks the cluster's barriers; call Start before running the fleet.
func NewFrontend(c *Cluster, gen *traffic.Generator, strategy RouteStrategy,
	template func(traffic.Tenant) (workload.Config, error)) (*Frontend, error) {
	if template == nil {
		template = DefaultServiceConfig
	}
	f := &Frontend{c: c, gen: gen, strategy: strategy}
	for _, t := range gen.Profile().Tenants {
		cfg, err := template(t)
		if err != nil {
			return nil, fmt.Errorf("cluster: frontend tenant %s: %w", t.ID, err)
		}
		f.services = append(f.services, &Service{tenant: t, template: cfg})
	}
	c.AtBarrier(f.barrier)
	return f, nil
}

// Services returns the per-tenant services in tenant order.
func (f *Frontend) Services() []*Service {
	out := make([]*Service, len(f.services))
	copy(out, f.services)
	return out
}

// Routed and Dropped count requests fleet-wide.
func (f *Frontend) Routed() int  { return f.routed }
func (f *Frontend) Dropped() int { return f.dropped }

// Start submits replicasPerTenant initial replicas for every service and
// routes the first epoch's arrivals. Call it with the fleet stopped at a
// barrier (normally before the first RunUntil); a second call is a no-op.
func (f *Frontend) Start(replicasPerTenant int) {
	if f.started {
		return
	}
	f.started = true
	if replicasPerTenant < 1 {
		replicasPerTenant = 1
	}
	now := f.c.Now()
	for _, svc := range f.services {
		for r := 0; r < replicasPerTenant; r++ {
			f.addReplica(svc, now)
		}
	}
	f.watermark = now
	f.route(now)
}

// addReplica submits one more replica for svc at now; it places
// immediately when the policy finds room and queues otherwise (the
// barrier retry places it when capacity frees).
func (f *Frontend) addReplica(svc *Service, now time.Duration) *JobHandle {
	cfg := svc.template
	cfg.Name = fmt.Sprintf("%s/r%d", svc.tenant.ID, svc.seq)
	svc.seq++
	h := f.c.Submit(now, cfg)
	svc.replicas = append(svc.replicas, h)
	return h
}

// barrier runs after the cluster's placement pass at every epoch
// boundary: autoscaling first (new replicas placed at this barrier are
// immediately routable, retired ones stop receiving traffic before any
// future arrival is bound to them), then routing of the next epoch.
func (f *Frontend) barrier(now time.Duration) {
	if !f.started {
		return
	}
	if f.scaler != nil {
		f.scaler.tick(now)
	}
	f.route(now)
}

// liveReplica is a routable replica and its load as seen at this barrier.
type liveReplica struct {
	h           *JobHandle
	outstanding int
	routed      int // this epoch
}

// route generates and binds every arrival in (watermark, now+epoch].
// Routing uses replica state observed at this barrier — exactly the one
// epoch of staleness the shard execution model prescribes for any
// cross-machine signal.
func (f *Frontend) route(now time.Duration) {
	target := now + f.c.Epoch()
	if target <= f.watermark {
		return
	}
	batch := f.gen.Batch(f.watermark, target)
	f.watermark = target

	for _, svc := range f.services {
		svc.live = svc.live[:0]
		for _, h := range svc.replicas {
			if h.live() {
				svc.live = append(svc.live, liveReplica{h: h, outstanding: h.Job.OutstandingRequests()})
			}
		}
		if f.strategy == RouteHash && svc.ring.refresh(svc.live) {
			svc.rebuilds++
		}
	}

	for _, a := range batch {
		svc := f.services[a.Tenant]
		set := svc.live
		idx := -1
		switch {
		case len(set) == 0:
		case f.strategy == RouteLeastLoaded:
			idx = 0
			for r := 1; r < len(set); r++ {
				if set[r].outstanding+set[r].routed < set[idx].outstanding+set[idx].routed {
					idx = r
				}
			}
		default:
			idx = svc.ring.lookup(a.Client)
		}
		if idx < 0 {
			svc.dropped++
			f.dropped++
			continue
		}
		set[idx].routed++
		f.routed++
		h := set[idx].h
		h.node.eng.After(a.At-now, h.deliver)
	}

	// One aggregated Route event per (tenant, replica) with traffic this
	// epoch, on the replica's node bus — the trace scales with epochs, not
	// with clients.
	for _, svc := range f.services {
		for _, lr := range svc.live {
			if lr.routed == 0 || !lr.h.node.machine.Bus().Wants(obs.KindRoute) {
				continue
			}
			lr.h.node.machine.Bus().Emit(obs.Event{
				Kind:   obs.KindRoute,
				Ctx:    lr.h.Job.Ctx,
				Job:    svc.tenant.ID,
				Device: lr.h.Where.String(),
				From:   f.strategy.String(),
				Count:  lr.routed,
			})
		}
	}
}

// hashRing is a small consistent-hash ring over live replicas. It is
// cached across barriers: point idx values index the live set the ring
// was built over, so the ring stays valid exactly while the live set
// holds the same handles in the same order.
type hashRing struct {
	points []ringPoint
	over   []*JobHandle // the live handles of the last build, in order
}

type ringPoint struct {
	hash uint64
	idx  int // index into the live-replica set
}

// ringVnodes balances the ring; 16 points per replica keeps the spread
// within a few percent for the replica counts a tenant reaches.
const ringVnodes = 16

// refresh rebuilds the ring over set, reusing its buffers, unless set
// holds the same handles in the same order as the last build. It reports
// whether it rebuilt.
func (r *hashRing) refresh(set []liveReplica) bool {
	if slices.EqualFunc(set, r.over, func(lr liveReplica, h *JobHandle) bool { return lr.h == h }) {
		return false
	}
	r.over = r.over[:0]
	r.points = r.points[:0]
	for i, lr := range set {
		r.over = append(r.over, lr.h)
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(lr.h.Cfg.Name, v), idx: i})
		}
	}
	// (hash, idx) is a total order over the points, so the ring does not
	// depend on the sort algorithm.
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	return true
}

// lookup returns the replica owning key (its ring successor), or -1 on an
// empty ring.
func (r hashRing) lookup(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].idx
}

// pointHash is the 64-bit FNV-1a hash of the ring point key "name#v",
// computed without building the string.
func pointHash(name string, v int) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var buf [24]byte
	suffix := strconv.AppendInt(append(buf[:0], '#'), int64(v), 10)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	for _, c := range suffix {
		h = (h ^ uint64(c)) * prime
	}
	return h
}
