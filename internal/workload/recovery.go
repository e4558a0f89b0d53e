package workload

import (
	"time"

	"switchflow/internal/device"
)

// Recovery cost model: the TensorFlow fault-tolerance story the paper's
// baselines rely on is periodic checkpoints to host memory plus restart
// from the last checkpoint. SwitchFlow uses the same primitives to
// self-heal after injected faults — a transient kernel/ECC error rolls a
// job back to its checkpoint and restarts it after an exponential
// backoff; a lost device additionally forces a migration with the state
// restored from the host-side checkpoint (the device copy is gone, so the
// cheap peer-to-peer path of §3.3 is unavailable).

// Restart backoff: the first restart waits the base, each consecutive
// failure doubles it, and the cap bounds a crash loop.
const (
	restartBackoff      = 250 * time.Millisecond
	maxBackoffDoublings = 4 // cap = base << 4 = 16x
)

// CheckpointBytes is the host-side snapshot size: the persistent state
// for training jobs (weights + optimizer slots); serving jobs keep no
// mutable state, so their "checkpoint" is the immutable model itself and
// costs nothing to maintain.
func (j *Job) CheckpointBytes() int64 {
	if j.Training() {
		return j.WeightBytes()
	}
	return 0
}

// RecordCheckpoint marks the current iteration count as durably saved.
// Callers are responsible for paying the device-to-host transfer of
// CheckpointBytes before calling it.
func (j *Job) RecordCheckpoint() {
	j.checkpointIters = j.Iterations
	j.checkpointAt = j.eng.Now()
}

// RollbackToCheckpoint rewinds a training job to its last checkpoint and
// returns how many iterations were lost. Serving jobs are stateless
// across requests, so they lose nothing (in-flight requests were already
// returned to the pending queue by AbandonCompute).
func (j *Job) RollbackToCheckpoint() int {
	if !j.Training() {
		return 0
	}
	lost := j.Iterations - j.checkpointIters
	if lost < 0 {
		lost = 0
	}
	j.Iterations = j.checkpointIters
	return lost
}

// NextRestartBackoff returns the virtual-time delay before the next
// restart attempt and advances the exponential schedule. A completed
// iteration (FinishCompute) resets the schedule.
func (j *Job) NextRestartBackoff() time.Duration {
	if j.backoff == 0 {
		j.backoff = restartBackoff
		return restartBackoff
	}
	next := j.backoff * 2
	if cap := restartBackoff << maxBackoffDoublings; next > cap {
		next = cap
	}
	j.backoff = next
	return next
}

// Restarted records one crash-and-restart recovery.
func (j *Job) Restarted() { j.Restarts++ }

// ForgetDevice drops the job's memory accounting on dev without
// returning bytes to the pool — the device's contents are gone
// (device-lost fault invalidates the pool wholesale).
func (j *Job) ForgetDevice(dev device.ID) {
	delete(j.weightHome, dev)
	delete(j.intermediate, dev)
}
