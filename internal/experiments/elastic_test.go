package experiments

import (
	"reflect"
	"sync"
	"testing"

	"switchflow/internal/harness"
)

// elasticRuns holds one serial and one 4-worker Elastic() sweep, shared
// by the determinism test and the recovery test so neither re-runs the
// arms.
var elasticRuns struct {
	once             sync.Once
	serial, parallel []ElasticRow
}

func elasticSerialParallel() (serial, parallel []ElasticRow) {
	elasticRuns.once.Do(func() {
		prev := harness.SetParallelism(1)
		defer harness.SetParallelism(prev)
		elasticRuns.serial = Elastic()

		harness.SetParallelism(4)
		elasticRuns.parallel = Elastic()
	})
	return elasticRuns.serial, elasticRuns.parallel
}

// TestElasticRecoveryBeatsRestart is the acceptance contract of the
// elastic experiment: the elastic arm survives the drain by rebinding
// (zero restarts, zero rollback), the restart arm survives but pays a
// restart plus checkpoint rollback, and the process-model baselines
// lose the job outright.
func TestElasticRecoveryBeatsRestart(t *testing.T) {
	serial, _ := elasticSerialParallel()
	byMode := make(map[string]ElasticRow, len(serial))
	for _, r := range serial {
		byMode[r.Mode] = r
	}

	el, ok := byMode["elastic"]
	if !ok {
		t.Fatal("no elastic row")
	}
	if !el.Alive {
		t.Fatal("elastic job did not survive the drain")
	}
	if el.Restarts != 0 {
		t.Fatalf("elastic job restarted %d times; want 0", el.Restarts)
	}
	if el.IterationsLost != 0 {
		t.Fatalf("elastic job lost %d iterations; want 0", el.IterationsLost)
	}
	if el.Grows == 0 {
		t.Fatal("elastic arm recorded no grow event")
	}
	if el.Rebinds == 0 {
		t.Fatal("elastic arm recorded no rebind events")
	}
	if el.Binding == "" {
		t.Fatal("elastic row has empty final binding")
	}

	re, ok := byMode["restart"]
	if !ok {
		t.Fatal("no restart row")
	}
	if !re.Alive {
		t.Fatal("restart-based job did not survive the device loss")
	}
	if re.Restarts == 0 {
		t.Fatal("restart arm recorded no restart; the comparison is vacuous")
	}
	if re.IterationsLost == 0 {
		t.Fatal("restart arm lost no iterations; checkpoint rollback did not engage")
	}

	for _, mode := range []string{"threaded", "timeslice"} {
		row, ok := byMode[mode]
		if !ok {
			t.Fatalf("no %s row", mode)
		}
		if row.Alive {
			t.Fatalf("%s baseline survived losing its device; it cannot migrate and should lose the job", mode)
		}
	}
}

// TestParallelElasticMatchesSerial extends the harness determinism
// contract to the elastic sweep: arms that mutate bindings mid-run
// (grow, drain) must still be byte-identical across worker counts.
func TestParallelElasticMatchesSerial(t *testing.T) {
	serial, parallel := elasticSerialParallel()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Elastic rows differ from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}
