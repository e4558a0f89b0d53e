// Shed-rate autoscaling for the fleet front-end. The controller runs at
// barrier time on the routing goroutine: a tenant whose shed rate stays
// above the high-water mark for sustainUp control intervals gains a
// replica (a fresh placement through the cluster policy); one that stays
// idle for sustainDown intervals loses its newest one. Background elastic
// training jobs registered with the controller yield virtual nodes while
// the fleet sheds and grow back when it calms — PR 7's Grow/Shrink means
// that costs a rebind, not a restart.
package cluster

import (
	"time"

	"switchflow/internal/obs"
	"switchflow/internal/workload"
)

// The controller's fixed thresholds.
const (
	// shedHigh is the shed-rate high-water mark: the fraction of a
	// tenant's arrivals shed — by replica admission control or by the
	// router finding no live replica — above which an interval counts as
	// hot.
	shedHigh = 0.05
	// minReplicas is the fewest replicas scale-in leaves a tenant.
	minReplicas = 1
	// controlInterval is the control period. Decisions happen at the
	// first barrier at or after each interval boundary.
	controlInterval = time.Second
	// sustainUp is how many consecutive hot intervals trigger a
	// scale-out: one interval of flash crowd is noise, two are a trend.
	sustainUp = 2
	// sustainDown is how many consecutive idle intervals trigger a
	// scale-in; scaling in is cheaper to delay than shedding.
	sustainDown = 5
	// scaleCooldown is the per-tenant pause after any scale action,
	// giving the previous action time to show in the signal.
	scaleCooldown = 2 * time.Second
)

// AutoscaleConfig tunes the controller; zero values take the defaults
// noted per field.
type AutoscaleConfig struct {
	// IdleRPS is the per-replica offered rate (default 2 req/s) below
	// which a shed-free interval counts as idle.
	IdleRPS float64
	// MaxReplicas caps each tenant's set (default 6).
	MaxReplicas int
}

// withDefaults fills zero fields.
func (c AutoscaleConfig) withDefaults() AutoscaleConfig {
	if c.IdleRPS <= 0 {
		c.IdleRPS = 2
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 6
	}
	return c
}

// elasticTarget is a background elastic training job the controller may
// shrink under fleet pressure and grow back when idle.
type elasticTarget struct {
	node     *Node
	job      *workload.Job
	min, max int
}

// Autoscaler scales tenant replica sets on shed rate and flexes
// registered elastic training jobs around the serving load.
type Autoscaler struct {
	cfg      AutoscaleConfig
	fe       *Frontend
	lastTick time.Duration
	ticked   bool
	calmFor  int
	elastic  []elasticTarget

	scaleOuts, scaleIns int
	shrinks, grows      int
}

// EnableAutoscaler attaches a controller to the front-end. Call before
// the fleet runs; the returned Autoscaler reports its actions.
func (f *Frontend) EnableAutoscaler(cfg AutoscaleConfig) *Autoscaler {
	a := &Autoscaler{cfg: cfg.withDefaults(), fe: f}
	f.scaler = a
	return a
}

// RegisterElastic puts an elastic training job on node under the
// controller's management, flexing between min and max virtual nodes.
func (a *Autoscaler) RegisterElastic(node *Node, job *workload.Job, min, max int) {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	a.elastic = append(a.elastic, elasticTarget{node: node, job: job, min: min, max: max})
}

// ScaleOuts and ScaleIns count replica-set actions across all tenants.
func (a *Autoscaler) ScaleOuts() int { return a.scaleOuts }
func (a *Autoscaler) ScaleIns() int  { return a.scaleIns }

// Shrinks and Grows count elastic-training resize actions.
func (a *Autoscaler) Shrinks() int { return a.shrinks }
func (a *Autoscaler) Grows() int   { return a.grows }

// tick runs at every barrier but acts once per control interval, in
// deterministic tenant order.
func (a *Autoscaler) tick(now time.Duration) {
	if a.ticked && now < a.lastTick+controlInterval {
		return
	}
	interval := now - a.lastTick
	a.lastTick = now
	if !a.ticked {
		// First tick only baselines the counters.
		a.ticked = true
		for _, svc := range a.fe.services {
			c := svc.Counters()
			svc.lastOffered, svc.lastShed = c.Offered, c.Shed
		}
		return
	}

	pressure := false
	for _, svc := range a.fe.services {
		c := svc.Counters()
		dOff := c.Offered - svc.lastOffered
		dShed := c.Shed - svc.lastShed
		svc.lastOffered, svc.lastShed = c.Offered, c.Shed

		shedRate := 0.0
		if dOff > 0 {
			shedRate = float64(dShed) / float64(dOff)
		}
		live := 0
		for _, h := range svc.replicas {
			if h.live() {
				live++
			}
		}
		switch {
		case shedRate >= shedHigh:
			pressure = true
			svc.hotFor++
			svc.idleFor = 0
		case dShed == 0 && live > 0 &&
			float64(dOff)/interval.Seconds()/float64(live) < a.cfg.IdleRPS:
			svc.idleFor++
			svc.hotFor = 0
		default:
			svc.hotFor, svc.idleFor = 0, 0
		}
		if now < svc.cooldownUntil {
			continue
		}
		if svc.hotFor >= sustainUp && svc.desired() < a.cfg.MaxReplicas {
			h := a.fe.addReplica(svc, now)
			svc.cooldownUntil = now + scaleCooldown
			svc.hotFor = 0
			svc.scaleOuts++
			a.scaleOuts++
			a.emit(obs.Event{
				Kind: obs.KindScaleOut, Ctx: ctxOf(h), Job: svc.tenant.ID,
				Name: h.Cfg.Name, Device: placementOf(h), Count: svc.desired(),
			})
		} else if svc.idleFor >= sustainDown && live > minReplicas {
			// Retire the newest live replica: the oldest ones carry the
			// consistent-hash ring's stable keys.
			for i := len(svc.replicas) - 1; i >= 0; i-- {
				h := svc.replicas[i]
				if !h.live() {
					continue
				}
				a.fe.c.Stop(h)
				svc.cooldownUntil = now + scaleCooldown
				svc.idleFor = 0
				svc.scaleIns++
				a.scaleIns++
				a.emit(obs.Event{
					Kind: obs.KindScaleIn, Ctx: ctxOf(h), Job: svc.tenant.ID,
					Name: h.Cfg.Name, Device: placementOf(h), Count: svc.desired(),
				})
				break
			}
		}
	}

	// Elastic training flexes against the serving tide: any pressure
	// shrinks every registered job one vnode per interval toward min;
	// sustainDown calm intervals grow them back one step toward max.
	if pressure {
		a.calmFor = 0
	} else {
		a.calmFor++
	}
	for _, t := range a.elastic {
		if t.job.Crashed() {
			continue
		}
		cur := t.job.Binding().Len()
		if pressure && cur > t.min {
			if t.node.mgr.Resize(t.job, cur-1) == nil {
				a.shrinks++
			}
		} else if a.calmFor >= sustainDown && cur < t.max {
			if t.node.mgr.Resize(t.job, cur+1) == nil {
				a.grows++
			}
		}
	}
}

// emit publishes a control-plane event on the head node's bus (node 0 is
// where the fleet's control loop conceptually runs).
func (a *Autoscaler) emit(e obs.Event) {
	a.fe.c.nodes[0].machine.Bus().Emit(e)
}

func ctxOf(h *JobHandle) int {
	if h.Job != nil {
		return h.Job.Ctx
	}
	return -1
}

func placementOf(h *JobHandle) string {
	if h.Placed {
		return h.Where.String()
	}
	return "queued"
}
