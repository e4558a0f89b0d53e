package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"switchflow/internal/obs"
)

// TestWorldsAreBuiltThroughTheSeam fails when a non-test file other than
// world.go builds an engine, a machine, a facade simulation, a scenario
// run or a cluster itself, so the world it builds would bypass the
// observe hook. Table1's copy engine runs nothing and is the one
// exception.
func TestWorldsAreBuiltThroughTheSeam(t *testing.T) {
	builders := map[string][]string{ // import path -> world-building functions
		"switchflow/internal/sim":      {"NewEngine"},
		"switchflow/internal/device":   {"NewMachine", "NewTwoGPUServer"},
		"switchflow":                   {"NewSimulation"},
		"switchflow/internal/cluster":  {"New", "NewNVLink"},
		"switchflow/internal/scenario": {"Run"},
	}
	allowed := map[string]bool{"table1.go sim.NewEngine": true}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "world.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			for _, fn := range builders[imports[pkg.Name]] {
				use := pkg.Name + "." + fn
				if sel.Sel.Name == fn && !allowed[name+" "+use] {
					t.Errorf("%s: %s builds a world outside world.go; use newWorld, runScenario, newSimulation or newCluster",
						fset.Position(sel.Pos()), use)
				}
			}
			return true
		})
	}
}

// TestFigure8CrashedCellIsZero: NASNetLarge training at BS=32 does not
// fit the Jetson TX2 even alone, so every job of both arms crashes. A
// cell with a crashed job must report nothing rather than the time of
// the crash as a gain.
func TestFigure8CrashedCellIsZero(t *testing.T) {
	got := Figure8Cell("Jetson TX2", "NASNetLarge", true, 32, 5)
	want := Figure8Row{GPU: "Jetson TX2", Mode: "training", Batch: 32, Model: "NASNetLarge"}
	if got != want {
		t.Fatalf("Figure8Cell = %+v, want the zero row %+v", got, want)
	}
}

// sweepRows holds the rows of every exported sweep of the package.
type sweepRows struct {
	table1          []Table1Row
	figure2         Figure2Result
	figure3         []Figure3Row
	figure6         []Figure6Row
	figure7         []Figure7Row
	figure8         []Figure8Row
	figure9         []Figure9Row
	figure10        []Figure10Row
	preemption      []PreemptionResult
	gandiva         []GandivaRow
	load            []LoadRow
	serving         []ServingRow
	eager           []EagerRow
	fleet           []FleetRow
	ablation        []AblationRow
	ablationMigrate []AblationMigrationRow
	chaos           []ChaosRow
	elastic         []ElasticRow
	gang            []GangRow
}

// reducedSweep runs every sweep at reduced size, in swbench's order.
func reducedSweep() sweepRows {
	const iters, requests = 2, 5
	r := sweepRows{
		table1:   Table1(),
		figure2:  Figure2(2 * time.Second),
		figure3:  Figure3(iters),
		figure6:  Figure6(requests),
		figure7:  Figure7(),
		figure8:  Figure8(iters),
		figure9:  Figure9(iters),
		figure10: Figure10(iters),
	}
	for _, model := range []string{"ResNet50", "VGG16", "InceptionV3", "MobileNetV2"} {
		r.preemption = append(r.preemption, PreemptionOverhead(model, requests))
	}
	r.gandiva = Gandiva(requests)
	r.load = LoadSweep(requests)
	r.serving = ServingSweep(2 * time.Second)
	r.eager = EagerComparison()
	r.fleet = Fleet(5*time.Second, 1000)
	r.ablation = Ablation(requests)
	r.ablationMigrate = AblationMigration()
	r.chaos = Chaos([]int64{1})
	r.elastic = Elastic()
	r.gang = Gang()
	return r
}

// worlds is how many worlds the sweep that produced r built.
func (r sweepRows) worlds() int {
	return 2 + // Figure 2: the solo run and the co-run
		len(r.figure3) +
		2*len(r.figure6) + // threaded TF and SwitchFlow
		3*len(r.figure7) + // two solo runs and the co-run
		2*(len(r.figure8)+len(r.figure9)+len(r.figure10)) + // time slicing and SwitchFlow
		len(r.preemption) +
		2*len(r.gandiva) + 2*len(r.load) + 2*len(r.serving) +
		3*len(r.eager) + // eager, static and fused
		len(r.fleet) + len(r.ablation) + len(r.ablationMigrate) +
		len(r.chaos) + len(r.elastic) + len(r.gang)
}

// busCount counts the events one bus delivers and remembers the first
// whose Seq breaks the run 1, 2, 3, ...
type busCount struct {
	bus *obs.Bus // held so no later bus can reuse its address

	mu           sync.Mutex
	n            uint64
	badN, badSeq uint64 // the first event out of line and its Seq; 0 while contiguous
}

func (c *busCount) Observe(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if e.Seq != c.n && c.badN == 0 {
		c.badN, c.badSeq = c.n, e.Seq
	}
}

// sweepRun is one reduced sweep with a counting sink on every kind of
// every world's buses, and one with the hook nil.
type sweepRun struct {
	observed, nilHook sweepRows
	calls             [][]*busCount // per observe call, one count per bus
}

var (
	sweepOnce sync.Once
	sweep     sweepRun
)

// observedSweep runs the two sweeps once, shared by the tests below.
func observedSweep() sweepRun {
	sweepOnce.Do(func() {
		var mu sync.Mutex
		observe = func(buses ...*obs.Bus) {
			call := make([]*busCount, len(buses))
			for i, b := range buses {
				call[i] = &busCount{bus: b}
				b.Subscribe(call[i])
			}
			mu.Lock()
			sweep.calls = append(sweep.calls, call)
			mu.Unlock()
		}
		sweep.observed = reducedSweep()
		observe = nil
		sweep.nilHook = reducedSweep()
	})
	return sweep
}

// TestObserveSeesEveryWorld is the seam's acceptance test: every world
// of the sweep calls the hook exactly once, with buses no other call
// handed over, and the hook subscribes before the bus emits anything,
// so each bus's events run Seq 1, 2, 3, ... without a gap.
func TestObserveSeesEveryWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole reduced sweep twice; skipped in -short mode")
	}
	runs := observedSweep()
	if got, want := len(runs.calls), runs.observed.worlds(); got != want {
		t.Errorf("observe called %d times, want once per world: %d", got, want)
	}
	seen := map[*obs.Bus]bool{}
	fleets := 0
	for _, call := range runs.calls {
		switch len(call) {
		case 1:
		case fleetNodes:
			fleets++
		default:
			t.Errorf("observe got %d buses, want 1 or one per fleet node (%d)", len(call), fleetNodes)
		}
		for _, c := range call {
			if seen[c.bus] {
				t.Errorf("bus %p handed to observe twice", c.bus)
			}
			seen[c.bus] = true
			if c.n == 0 {
				t.Errorf("bus %p delivered no event", c.bus)
			}
			if c.badN != 0 {
				t.Errorf("bus %p: event %d has Seq %d; the hook subscribed late", c.bus, c.badN, c.badSeq)
			}
		}
	}
	if fleets != len(runs.observed.fleet) {
		t.Errorf("observe got every fleet node's bus %d times, want once per fleet arm: %d", fleets, len(runs.observed.fleet))
	}
}

// TestObservingPerturbsNothing: a sink on every kind of every bus leaves
// every row of the sweep as it is with the hook nil.
func TestObservingPerturbsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole reduced sweep twice; skipped in -short mode")
	}
	runs := observedSweep()
	if !reflect.DeepEqual(runs.observed, runs.nilHook) {
		t.Fatalf("observed sweep differs from the unobserved one:\nobserved: %+v\nnil hook: %+v",
			runs.observed, runs.nilHook)
	}
}
