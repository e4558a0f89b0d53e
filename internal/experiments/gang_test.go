package experiments

import (
	"reflect"
	"sync"
	"testing"

	"switchflow/internal/harness"
)

// gangRuns holds one serial and one 8-worker Gang() sweep, shared by the
// determinism test and the semantics test so neither re-runs the arms.
var gangRuns struct {
	once             sync.Once
	serial, parallel []GangRow
}

func gangSerialParallel() (serial, parallel []GangRow) {
	gangRuns.once.Do(func() {
		prev := harness.SetParallelism(1)
		defer harness.SetParallelism(prev)
		gangRuns.serial = Gang()

		harness.SetParallelism(8)
		gangRuns.parallel = Gang()
	})
	return gangRuns.serial, gangRuns.parallel
}

// TestParallelGangMatchesSerial extends the determinism contract to the
// gang arms: cluster gang placement, queueing, and whole-gang preemption
// must be byte-identical on one worker or eight.
func TestParallelGangMatchesSerial(t *testing.T) {
	serial, parallel := gangSerialParallel()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Gang rows differ from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestGangArmsDemonstrateSemantics pins the experiment's claims: NVLink
// beats the straddling ring, all-or-nothing placement queues the
// overflow gang whole, and no arm leaves a partial gang or resumes a
// lone replica.
func TestGangArmsDemonstrateSemantics(t *testing.T) {
	serial, _ := gangSerialParallel()
	if len(serial) != 5 {
		t.Fatalf("got %d rows, want 5 arms", len(serial))
	}
	rows := map[string]GangRow{}
	for _, r := range serial {
		rows[r.Mode] = r
		if r.PartialGangs != 0 || r.Stragglers != 0 {
			t.Fatalf("arm %s: partial=%d stragglers=%d, want 0/0",
				r.Mode, r.PartialGangs, r.Stragglers)
		}
	}
	nvlink, straddle := rows["nvlink"], rows["straddle"]
	if nvlink.Iterations <= straddle.Iterations {
		t.Fatalf("NVLink ring did %d iterations vs %d straddling; the fabric must price the difference",
			nvlink.Iterations, straddle.Iterations)
	}
	if nvlink.MeanSyncMillis <= 0 || nvlink.MeanSyncMillis >= straddle.MeanSyncMillis {
		t.Fatalf("mean sync nvlink=%.2fms straddle=%.2fms, want 0 < nvlink < straddle",
			nvlink.MeanSyncMillis, straddle.MeanSyncMillis)
	}
	gang, indep := rows["gang"], rows["independent"]
	if gang.GangPlaces != 2 || gang.QueuedWhole != 1 {
		t.Fatalf("contended gangs: places=%d queued=%d, want 2/1",
			gang.GangPlaces, gang.QueuedWhole)
	}
	if indep.QueuedWhole != 0 || indep.AllReduces != 0 {
		t.Fatalf("independent workers queued=%d allreduces=%d, want 0/0",
			indep.QueuedWhole, indep.AllReduces)
	}
	pre := rows["preempt"]
	if pre.GangPreempts == 0 || pre.GangResumes == 0 {
		t.Fatalf("preempt arm recorded %d preempts / %d resumes, want both > 0",
			pre.GangPreempts, pre.GangResumes)
	}
}
