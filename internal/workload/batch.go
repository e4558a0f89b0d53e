package workload

import (
	"sort"
	"time"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/obs"
)

// This file is the serving job's dynamic-batching and admission-control
// layer (the TF-Serving-style batching queue §4 sketches as future work):
// requests are preprocessed individually through the input pipeline, and
// the batcher groups *ready* inputs into a micro-batch at compute launch
// under a max-size/max-wait policy. The admission controller prices batch
// execution with internal/cost and sheds an arriving request when its
// projected queueing delay would blow the job's SLO — shedding at the
// door beats serving a reply nobody will wait for.

// batchingEnabled reports whether micro-batching applies: open-loop
// serving with MaxBatch > 1. A closed loop has one outstanding request at
// a time and saturated serving has no request queue, so neither can form
// batches; training always runs its configured mini-batch.
func (j *Job) batchingEnabled() bool {
	return j.Cfg.Kind == KindServing && !j.Cfg.ClosedLoop && !j.Cfg.Saturated &&
		j.Cfg.MaxBatch > 1
}

// TargetBatch returns the micro-batch size the batcher aims for: the
// largest size within MaxBatch whose priced execution still fits the SLO
// after the batch-wait window (a batch that blows the deadline by itself
// is worse than a smaller one). Without an SLO the target is MaxBatch.
func (j *Job) TargetBatch() int {
	if !j.batchingEnabled() {
		return 1
	}
	if j.targetBatch > 0 {
		return j.targetBatch
	}
	target := j.Cfg.MaxBatch
	if j.Cfg.SLO > 0 {
		// The estimate grows with k. Step down from MaxBatch by strides
		// of 1, 1, 2, 4, ... until a size fits, then bisect the last
		// stride. Pricing a size builds its graph version, so this prices
		// the sizes a scan down from MaxBatch would when the target is
		// within two of it, and O(log MaxBatch) sizes otherwise. Size 1
		// is the fallback and is not priced.
		budget := j.Cfg.SLO - j.Cfg.BatchWait
		lo, hi := 1, j.Cfg.MaxBatch+1 // lo fits or is 1; hi does not fit
		for k, step := j.Cfg.MaxBatch, 1; k > lo; k -= step {
			if j.batchEstimate(k) <= budget {
				lo = k
				break
			}
			hi = k
			if k < j.Cfg.MaxBatch-1 {
				step *= 2
			}
		}
		target = lo + sort.Search(hi-lo-1, func(i int) bool {
			return j.batchEstimate(lo+1+i) > budget
		})
	}
	j.targetBatch = target
	return target
}

// batchEstimate prices one execution of a k-request micro-batch on the
// job's preferred device: the serialized sum of kernel launches under the
// roofline model. Launch overheads and minimum kernel times do not grow
// with the batch, so the estimate scales sub-linearly in k — the
// economics that make batching worth the added wait.
func (j *Job) batchEstimate(k int) time.Duration {
	if d, ok := j.batchEst[k]; ok {
		return d
	}
	var d time.Duration
	if v, err := j.versionFor(j.Cfg.Device, k); err == nil {
		if j.Cfg.Device.Kind == device.KindGPU {
			d = cost.SerialGPUEstimate(v.Compute, j.machine.GPU(j.Cfg.Device.Index).Class)
		} else {
			d = cost.SerialCPUEstimate(v.Compute, j.machine.CPU)
		}
	}
	j.batchEst[k] = d
	return d
}

// inputEstimate prices one request's input preprocessing: the serialized
// CPU cost of the input subgraph on the job's machine. Zero for all-CPU
// placements, where preprocessing folds into the compute estimate.
func (j *Job) inputEstimate() time.Duration {
	if j.inputEstKnown {
		return j.inputEst
	}
	j.inputEstKnown = true
	if v, err := j.Version(j.Cfg.Device); err == nil && v.Input != nil {
		j.inputEst = cost.SerialCPUEstimate(v.Input, j.machine.CPU)
	}
	return j.inputEst
}

// versionFor returns the graph version for a micro-batch of the given
// request count on dev. One request is the base per-device version;
// larger batches get their own replicated executors, built at
// requests x Cfg.Batch.
func (j *Job) versionFor(dev device.ID, requests int) (*Version, error) {
	if requests <= 1 {
		return j.Version(dev)
	}
	return j.versionBatch(dev, requests*j.Cfg.Batch)
}

// computeBatchSize is the request count of the next compute launch: the
// active micro-batch when one is in flight (a preempted run resuming),
// otherwise as many ready inputs as the target allows, minimum one.
func (j *Job) computeBatchSize() int {
	if j.ComputeRunning && len(j.active) > 0 {
		return len(j.active)
	}
	if !j.batchingEnabled() {
		return 1
	}
	k := j.ready.Len()
	if t := j.TargetBatch(); k > t {
		k = t
	}
	if k < 1 {
		k = 1
	}
	return k
}

// NextComputeVersion returns the graph version the next compute launch on
// dev should execute, sized to the micro-batch that launch will consume.
// Schedulers call it in place of Version for the compute stage.
func (j *Job) NextComputeVersion(dev device.ID) (*Version, error) {
	return j.versionFor(dev, j.computeBatchSize())
}

// admitArrival runs the admission controller on one arriving request and
// reports whether it was enqueued. Shed requests are counted and dropped.
func (j *Job) admitArrival(now time.Duration) bool {
	if j.shouldShed() {
		j.bus.Emit(obs.Event{Kind: obs.KindShed, Ctx: j.Ctx, Job: j.Cfg.Name, Start: now})
		return false
	}
	j.bus.Emit(obs.Event{Kind: obs.KindAdmit, Ctx: j.Ctx, Job: j.Cfg.Name, Start: now})
	j.pending.Push(now)
	return true
}

// shouldShed projects the queueing delay of an arriving request: every
// request ahead of it that still needs preprocessing flows through the
// input pipeline (PrefetchDepth-wide, priced per request by the cost
// model), then everything ahead drains in target-sized micro-batches,
// plus one batch-wait window. When the projection exceeds the SLO the
// request is shed at the door. Closed-loop clients are never shed — they
// self-limit by construction.
func (j *Job) shouldShed() bool {
	if j.Cfg.SLO <= 0 || j.Cfg.ClosedLoop || j.Cfg.Saturated {
		return false
	}
	k := j.TargetBatch()
	queued := j.pending.Len() + j.inflight.Len() + j.ready.Len() + len(j.active) + 1
	batches := (queued + k - 1) / k
	projected := time.Duration(batches) * j.batchEstimate(k)
	if in := j.inputEstimate(); in > 0 {
		depth := j.Cfg.PrefetchDepth
		if depth < 1 {
			depth = 1
		}
		unprocessed := j.pending.Len() + j.inflight.Len() + 1
		projected += time.Duration(unprocessed) * in / time.Duration(depth)
	}
	if j.batchingEnabled() {
		projected += j.Cfg.BatchWait
	}
	return projected > j.Cfg.SLO
}

// noteInputReady opens the batch-wait window when the first input of a
// new micro-batch becomes ready.
func (j *Job) noteInputReady() {
	if !j.batchingEnabled() || j.Cfg.BatchWait <= 0 {
		return
	}
	if j.ready.Len() == 1 {
		j.openBatchWindow()
	}
}

// openBatchWindow starts (or restarts) the max-wait clock and arms a
// timer that re-pumps the scheduler when the window closes, so a held
// sub-target batch always launches by the deadline.
func (j *Job) openBatchWindow() {
	j.batchDeadline = j.eng.Due(j.Cfg.BatchWait)
	j.batchTimer.Cancel()
	j.batchTimer = j.eng.After(j.Cfg.BatchWait, j.batchWakeFn)
}

// batchWake is the batch-wait timer's callback (j.batchWakeFn, bound
// once per job).
func (j *Job) batchWake() {
	if j.pumpHook != nil {
		j.pumpHook()
	}
}

// HoldForBatch reports whether a batching-aware scheduler should delay
// the next compute launch to let the micro-batch fill: some inputs are
// ready but fewer than the target, and the max-wait window is still open.
// Only the SwitchFlow manager consults this — the baselines launch
// greedily, and a scheduler that never calls it never waits.
func (j *Job) HoldForBatch() bool {
	if !j.batchingEnabled() || j.Cfg.BatchWait <= 0 {
		return false
	}
	n := j.ready.Len()
	if n == 0 || n >= j.TargetBatch() {
		return false
	}
	return j.eng.Now() < j.batchDeadline
}
