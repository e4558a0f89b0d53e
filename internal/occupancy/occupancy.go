// Package occupancy implements the CUDA occupancy calculation the paper
// used to diagnose kernel concurrency (§2.2): NVIDIA's occupancy
// calculator showed that 10 of the 13 cuDNN convolution kernels were
// bottlenecked by the register file and could not run concurrently with
// other kernels. This package reproduces that analysis: given a kernel's
// launch configuration and an SM's resource limits, it computes how many
// blocks fit per SM, which resource binds, and the resulting warp
// occupancy and whole-device footprint.
package occupancy

import "fmt"

// LaunchConfig is a kernel's per-block resource demand.
//
//swlint:allow testonly the independent §2.2 calculator that cost's footprint test checks against
type LaunchConfig struct {
	// ThreadsPerBlock is the block size.
	ThreadsPerBlock int
	// RegistersPerThread as reported by nvcc/nvprof.
	RegistersPerThread int
	// SharedMemPerBlock in bytes (static + dynamic).
	SharedMemPerBlock int
	// GridBlocks is the launch's total block count.
	GridBlocks int
}

// SMLimits are one streaming multiprocessor's resource capacities.
type SMLimits struct {
	// MaxThreads is the thread residency limit (2048 on Pascal-Volta).
	MaxThreads int
	// MaxBlocks is the resident-block limit.
	MaxBlocks int
	// Registers is the register-file size in 32-bit registers.
	Registers int
	// SharedMem is the shared-memory capacity in bytes.
	SharedMem int
	// WarpSize is 32 on all NVIDIA hardware.
	WarpSize int
}

// Architecture limits for the paper's GPUs.
var (
	// Volta is the V100's SM (also a good Turing approximation).
	Volta = SMLimits{
		MaxThreads: 2048,
		MaxBlocks:  32,
		Registers:  65536,
		SharedMem:  96 << 10,
		WarpSize:   32,
	}
	// Pascal covers the GTX 1080 Ti and the Jetson TX2's GPU.
	Pascal = SMLimits{
		MaxThreads: 2048,
		MaxBlocks:  32,
		Registers:  65536,
		SharedMem:  96 << 10,
		WarpSize:   32,
	}
	// Turing is the RTX 2080 Ti's SM.
	Turing = SMLimits{
		MaxThreads: 1024,
		MaxBlocks:  16,
		Registers:  65536,
		SharedMem:  64 << 10,
		WarpSize:   32,
	}
)

// Limiter names the resource that bounds residency.
type Limiter int

// Limiters, in the order the calculator evaluates them.
const (
	LimitThreads Limiter = iota + 1
	LimitBlocks
	LimitRegisters
	LimitSharedMem
)

// String implements fmt.Stringer.
func (l Limiter) String() string {
	switch l {
	case LimitThreads:
		return "threads"
	case LimitBlocks:
		return "blocks"
	case LimitRegisters:
		return "registers"
	case LimitSharedMem:
		return "shared-memory"
	default:
		return fmt.Sprintf("limiter(%d)", int(l))
	}
}

// Analysis is the occupancy calculator's output for one kernel.
type Analysis struct {
	// BlocksPerSM is the resident-block count.
	BlocksPerSM int
	// Limiter is the binding resource.
	Limiter Limiter
	// WarpOccupancy is active warps / max warps, in [0,1].
	WarpOccupancy float64
	// RegisterBound reports whether the register file binds (the §2.2
	// diagnosis for heavy cuDNN kernels).
	RegisterBound bool
}

// Analyze runs the occupancy calculation for one launch config.
//
//swlint:allow testonly the independent §2.2 calculator that cost's footprint test checks against
func Analyze(cfg LaunchConfig, sm SMLimits) (Analysis, error) {
	if cfg.ThreadsPerBlock <= 0 {
		return Analysis{}, fmt.Errorf("occupancy: threads per block must be positive, got %d", cfg.ThreadsPerBlock)
	}
	if cfg.ThreadsPerBlock > sm.MaxThreads {
		return Analysis{}, fmt.Errorf("occupancy: block of %d threads exceeds SM limit %d",
			cfg.ThreadsPerBlock, sm.MaxThreads)
	}

	byThreads := sm.MaxThreads / cfg.ThreadsPerBlock
	byBlocks := sm.MaxBlocks
	byRegs := byBlocks
	if cfg.RegistersPerThread > 0 {
		regsPerBlock := cfg.RegistersPerThread * cfg.ThreadsPerBlock
		byRegs = sm.Registers / regsPerBlock
	}
	bySmem := byBlocks
	if cfg.SharedMemPerBlock > 0 {
		bySmem = sm.SharedMem / cfg.SharedMemPerBlock
	}

	blocks := byThreads
	limiter := LimitThreads
	for _, cand := range []struct {
		n int
		l Limiter
	}{
		{byBlocks, LimitBlocks},
		{byRegs, LimitRegisters},
		{bySmem, LimitSharedMem},
	} {
		if cand.n < blocks {
			blocks = cand.n
			limiter = cand.l
		}
	}
	if blocks < 1 {
		// Not even one block fits: CUDA would fail the launch.
		return Analysis{}, fmt.Errorf("occupancy: launch config exceeds SM %v capacity", limiter)
	}

	warpsPerBlock := (cfg.ThreadsPerBlock + sm.WarpSize - 1) / sm.WarpSize
	maxWarps := sm.MaxThreads / sm.WarpSize
	warpOcc := float64(blocks*warpsPerBlock) / float64(maxWarps)
	if warpOcc > 1 {
		warpOcc = 1
	}
	return Analysis{
		BlocksPerSM:   blocks,
		Limiter:       limiter,
		WarpOccupancy: warpOcc,
		RegisterBound: limiter == LimitRegisters,
	}, nil
}

// DeviceFootprint estimates the fraction of the whole GPU a kernel's grid
// consumes: grids larger than the device's resident-block capacity
// saturate it (footprint 1), preventing any concurrent kernel — the §2.2
// serialization.
//
//swlint:allow testonly the independent §2.2 calculator that cost's footprint test checks against
func DeviceFootprint(cfg LaunchConfig, sm SMLimits, smCount int) (float64, error) {
	a, err := Analyze(cfg, sm)
	if err != nil {
		return 0, err
	}
	if smCount <= 0 {
		return 1, nil
	}
	capacity := a.BlocksPerSM * smCount
	if cfg.GridBlocks >= capacity {
		return 1, nil
	}
	return float64(cfg.GridBlocks) / float64(capacity), nil
}
