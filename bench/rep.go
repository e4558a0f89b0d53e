package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"switchflow/internal/harness"
	"switchflow/internal/obs"
)

// Rep roles: a plain rep is what the end-to-end metrics are measured on;
// a profiled rep runs the same simulation under runtime/pprof; a parallel
// rep advances the fleet's node engines on two workers and must reproduce
// the serial digest.
const (
	rolePlain    = "plain"
	roleProfiled = "profiled"
	roleParallel = "parallel"
)

// repResult is what one child process reports for one rep.
type repResult struct {
	Workload string    `json:"workload"`
	Role     string    `json:"role"`
	Sim      simResult `json:"sim"`
	Digest   string    `json:"digest"`
	HorizonS float64   `json:"horizon_s"`
	// CPU times in seconds: the builds of the world and the reference
	// round before each, the timed phase's slices and the round after
	// each. Every rep of one workload and seed does the same work at each
	// position of each list.
	BuildS      []float64 `json:"build_s"`
	BuildRefS   []float64 `json:"build_ref_s"`
	SliceS      []float64 `json:"slice_s"`
	RoundS      []float64 `json:"round_s"`
	Mallocs     uint64    `json:"mallocs"`
	AllocBytes  uint64    `json:"alloc_bytes"`
	GCCycles    uint32    `json:"gc_cycles"`
	LiveHeapMiB float64   `json:"live_heap_mib"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	CPU         []share   `json:"cpu,omitempty"`
	Alloc       []share   `json:"alloc,omitempty"`
}

// stopwatch returns the host wall time elapsed since its creation; it
// paces a run against its -seconds budget and never feeds the simulation.
func stopwatch() func() time.Duration {
	//swlint:allow simclock a run lasts a budget of host seconds by definition
	start := time.Now()
	return func() time.Duration {
		//swlint:allow simclock a run lasts a budget of host seconds by definition
		return time.Since(start)
	}
}

// cpuStopwatch returns the CPU time this process has used since the
// stopwatch's creation. Every cost the benchmark reports is CPU time: a
// shared host takes the vCPU away for whole scheduler quanta, which wall
// time counts in full (long slices of the timed phase catch them, short
// reference rounds mostly escape them) and CPU time does not, the
// hypervisor's steal included.
func cpuStopwatch() func() time.Duration {
	start := processCPU()
	return func() time.Duration { return processCPU() - start }
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID: the CPU time of
// every thread of the process, in nanoseconds.
const clockProcessCPUTime = 2

func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// The reference loop: seeded sorting through an indirect comparator,
// hash-table inserts and lookups, index chasing and a short-lived linked
// list, six passes per round, about 3 ms per round on a 2-vCPU x86 host.
// Its rounds are interleaved with the timed phase: the simulation
// advances to its horizon in refRounds equal slices of virtual time with
// one round after each slice, so the reference samples the host under
// the same neighbours' load as the simulation, and run_vs_ref (slices
// over rounds) cancels most of the speed drift between and within
// processes on a shared machine. The tables are package-level
// arrays outside the Go heap. The lists' small objects, there so that
// allocation and collection speed are sampled too, add about 2.5% to the
// simulation's allocation (and as many garbage collection cycles) and
// are subtracted from its counts.
const (
	refSeed   = 0x9e3779b97f4a7c15
	refRounds = 60
	refPasses = 6
	refKeys   = 1 << 12
	refSlots  = 2 * refKeys
)

var (
	refKeyBuf [refKeys]int
	refNext   [refKeys]int32
	refTable  [refSlots]int32 // open addressing: key index + 1, 0 when empty
)

type refObj struct {
	key  int
	next *refObj
}

// refLoop draws from a fixed xorshift stream, so every rep does identical
// work. mallocs and bytes are what one round allocates.
type refLoop struct {
	state          uint64
	sum            int
	mallocs, bytes uint64
}

func newRefLoop() *refLoop {
	r := &refLoop{state: refSeed}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.round()
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.bytes = after.TotalAlloc - before.TotalAlloc
	return r
}

func (r *refLoop) draw() int {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return int((r.state * 2685821657736338717) >> 52)
}

// refCmp orders keys through an indirect call, as the simulator's event
// callbacks and comparators do.
var refCmp = func(a, b int) int { return a - b }

func refSlot(k int) int { return int(uint64(k) * 0x9e3779b97f4a7c15 >> 51) }

// refFind returns the slot holding key k, or the empty slot where it goes.
func refFind(k int) int {
	s := refSlot(k)
	for refTable[s] != 0 && refKeyBuf[refTable[s]-1] != k {
		s = (s + 1) % refSlots
	}
	return s
}

func (r *refLoop) round() time.Duration {
	elapsed := cpuStopwatch()
	for pass := 0; pass < refPasses; pass++ {
		for i := range refKeyBuf {
			refKeyBuf[i] = r.draw() % refKeys
		}
		slices.SortFunc(refKeyBuf[:], refCmp)
		clear(refTable[:])
		head := int32(-1)
		for i, k := range refKeyBuf {
			refNext[i], head = head, int32(i)
			if s := refFind(k); refTable[s] == 0 {
				refTable[s] = int32(i) + 1
			}
		}
		for n := head; n >= 0; n = refNext[n] {
			if refTable[refFind(refKeyBuf[n])] == n+1 {
				r.sum++
			}
		}
		var list *refObj
		for _, k := range refKeyBuf {
			list = &refObj{key: k, next: list}
		}
		for ; list != nil; list = list.next {
			r.sum += list.key & 1
		}
	}
	return elapsed()
}

// setupBuilds is how many times a rep builds its world: set-up takes well
// under a millisecond to a few milliseconds, too short to time steadily
// once.
const setupBuilds = 15

// runRep builds and runs one workload in this process and measures it.
// dir receives the profiles of a profiled rep.
func runRep(wl benchWorkload, seed int64, quick bool, role, dir string) (repResult, error) {
	procs := 1
	if role == roleParallel {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	harness.SetParallelism(procs)
	if role == roleProfiled {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1024
	}
	horizon, steps, builds := wl.horizon, refRounds, setupBuilds
	if quick {
		horizon, steps, builds = wl.quick, 5, 1
	}
	res := repResult{Workload: wl.name, Role: role, HorizonS: horizon.Seconds()}

	ref := newRefLoop()
	var w *world
	var err error
	for i := 0; i < builds; i++ {
		w = nil
		runtime.GC()
		res.BuildRefS = append(res.BuildRefS, ref.round().Seconds())
		elapsed := cpuStopwatch()
		w, err = wl.build(seed, horizon)
		res.BuildS = append(res.BuildS, elapsed().Seconds())
		if err != nil {
			return res, fmt.Errorf("%s: build: %w", wl.name, err)
		}
	}
	var gangs *gangWatch
	var prof *profiler
	if role == roleProfiled {
		gangs = watchGangs(w)
		if prof, err = startProfiler(dir, wl.name); err != nil {
			return res, err
		}
	}
	res.SliceS, res.RoundS = make([]float64, 0, steps), make([]float64, 0, steps)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= steps; i++ {
		elapsed := cpuStopwatch()
		w.advance(horizon / time.Duration(steps) * time.Duration(i))
		res.SliceS = append(res.SliceS, elapsed().Seconds())
		res.RoundS = append(res.RoundS, ref.round().Seconds())
	}
	runtime.ReadMemStats(&after)
	// The world is still referenced below, so what survives a full
	// collection is its footprint at the horizon.
	var settled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&settled)
	res.LiveHeapMiB = float64(settled.HeapAlloc) / (1 << 20)
	if prof != nil {
		if res.CPU, res.Alloc, err = prof.stop(); err != nil {
			return res, err
		}
	}
	res.Mallocs = after.Mallocs - before.Mallocs - uint64(steps)*ref.mallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc - uint64(steps)*ref.bytes
	res.GCCycles = after.NumGC - before.NumGC

	res.Sim = w.collect()
	if err := w.verify(); err != nil {
		return res, fmt.Errorf("%s: %w", wl.name, err)
	}
	if gangs != nil && gangs.err != nil {
		return res, fmt.Errorf("%s: %w", wl.name, gangs.err)
	}
	if res.Sim.Kernels == 0 {
		return res, fmt.Errorf("%s: no kernel ran", wl.name)
	}
	data, err := json.Marshal(res.Sim)
	if err != nil {
		return res, err
	}
	h := fnv.New64a()
	h.Write(data)
	res.Digest = strconv.FormatUint(h.Sum64(), 16)
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return res, err
	}
	return res, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// The line reads "VmHWM:    12345 kB".
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// gangWatch checks whole-gang preemption from the event spine: a gang
// preempted twice with no GangResume or JobLost in between was displaced
// while already displaced, which the gang protocol rules out.
type gangWatch struct {
	open map[int]bool
	err  error
}

func watchGangs(w *world) *gangWatch {
	g := &gangWatch{open: map[int]bool{}}
	sink := obs.SinkFunc(func(e obs.Event) {
		switch e.Kind {
		case obs.KindGangPreempt:
			if g.open[e.Ctx] && g.err == nil {
				g.err = fmt.Errorf("gang %s preempted twice without a resume at %v", e.Job, e.Time)
			}
			g.open[e.Ctx] = true
		case obs.KindGangResume, obs.KindJobLost:
			g.open[e.Ctx] = false
		}
	})
	for _, m := range w.machines {
		m.Bus().Subscribe(sink, obs.KindGangPreempt, obs.KindGangResume, obs.KindJobLost)
	}
	return g
}

// profiler records a CPU profile and an allocation profile of the timed
// phase and attributes them to the repository's packages.
type profiler struct {
	cpuPath, allocPath string
	cpu                *os.File
	allocBefore        []byte
}

func startProfiler(dir, name string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profiler{
		cpuPath:   filepath.Join(dir, name+".cpu.pprof"),
		allocPath: filepath.Join(dir, name+".alloc.pprof"),
	}
	var err error
	if p.allocBefore, err = allocProfile(); err != nil {
		return nil, err
	}
	if p.cpu, err = os.Create(p.cpuPath); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(p.cpu); err != nil {
		p.cpu.Close()
		return nil, err
	}
	return p, nil
}

func (p *profiler) stop() (cpu, alloc []share, err error) {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return nil, nil, err
	}
	allocAfter, err := allocProfile()
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(p.allocPath, allocAfter, 0o644); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(p.cpuPath)
	if err != nil {
		return nil, nil, err
	}
	if cpu, err = cpuShares(data); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	if alloc, err = allocShares(p.allocBefore, allocAfter); err != nil {
		return nil, nil, fmt.Errorf("alloc profile: %w", err)
	}
	return cpu, alloc, nil
}

// allocProfile returns the cumulative allocation profile as of a fresh
// GC cycle (the runtime publishes samples at cycle ends).
func allocProfile() ([]byte, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
