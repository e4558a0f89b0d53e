// Package device models the hardware substrate SwitchFlow schedules onto:
// GPUs with finite memory and processor-shared kernel execution, CPU
// classes, and PCIe copy engines. All devices advance in virtual time via a
// sim.Engine.
package device

import (
	"fmt"
	"strconv"
	"time"
)

// Kind discriminates device categories.
type Kind int

// Device kinds.
const (
	KindCPU Kind = iota + 1
	KindGPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindGPU:
		return "gpu"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ID names a device within a machine, e.g. gpu:0 or cpu:0.
type ID struct {
	Kind  Kind
	Index int
}

// CPUID is the canonical identifier of the (single) CPU device.
var CPUID = ID{Kind: KindCPU}

// GPUID returns the identifier of the i-th GPU.
func GPUID(i int) ID { return ID{Kind: KindGPU, Index: i} }

// String implements fmt.Stringer. Every scheduling event names its
// device, so the common names come from a table and cost no allocation.
func (id ID) String() string {
	switch {
	case id.Kind == KindGPU && id.Index >= 0 && id.Index < len(gpuNames):
		return gpuNames[id.Index]
	case id == CPUID:
		return "cpu:0"
	}
	return id.Kind.String() + ":" + strconv.Itoa(id.Index)
}

// gpuNames holds "gpu:0" through "gpu:63".
var gpuNames = func() (names [64]string) {
	for i := range names {
		names[i] = "gpu:" + strconv.Itoa(i)
	}
	return names
}()

// GPUClass describes a GPU model's capabilities. Durations produced by the
// cost model are derived from these numbers.
type GPUClass struct {
	// Name is the marketing name, e.g. "Tesla V100".
	Name string
	// FP32TFLOPS is peak single-precision throughput.
	FP32TFLOPS float64
	// MemBandwidthGBps is peak device-memory bandwidth.
	MemBandwidthGBps float64
	// MemoryBytes is usable device memory.
	MemoryBytes int64
	// PCIeGBps is the effective host-link bandwidth for bulk copies.
	PCIeGBps float64
	// SMs is the number of streaming multiprocessors.
	SMs int
	// LaunchOverhead is the CPU-side cost of issuing one kernel.
	LaunchOverhead time.Duration
	// Efficiency is the fraction of peak a well-tuned DL kernel achieves.
	Efficiency float64
}

// The GPU classes used in the paper's evaluation (§5.1).
var (
	// ClassV100 is the NVIDIA Tesla V100 SXM2 32 GB.
	ClassV100 = GPUClass{
		Name:             "Tesla V100",
		FP32TFLOPS:       15.7,
		MemBandwidthGBps: 900,
		MemoryBytes:      32 << 30,
		PCIeGBps:         11.3,
		SMs:              80,
		LaunchOverhead:   6 * time.Microsecond,
		Efficiency:       0.55,
	}
	// ClassRTX2080Ti is the NVIDIA GeForce RTX 2080 Ti 11 GB.
	ClassRTX2080Ti = GPUClass{
		Name:             "RTX 2080 Ti",
		FP32TFLOPS:       13.4,
		MemBandwidthGBps: 616,
		MemoryBytes:      11 << 30,
		PCIeGBps:         11.3,
		SMs:              68,
		LaunchOverhead:   6 * time.Microsecond,
		Efficiency:       0.50,
	}
	// ClassGTX1080Ti is the NVIDIA GeForce GTX 1080 Ti 11 GB.
	ClassGTX1080Ti = GPUClass{
		Name:             "GTX 1080 Ti",
		FP32TFLOPS:       11.3,
		MemBandwidthGBps: 484,
		MemoryBytes:      11 << 30,
		PCIeGBps:         11.3,
		SMs:              28,
		LaunchOverhead:   7 * time.Microsecond,
		Efficiency:       0.45,
	}
	// ClassJetsonTX2 is the embedded Jetson TX2 (256-core Pascal, memory
	// shared with the CPU).
	ClassJetsonTX2 = GPUClass{
		Name:             "Jetson TX2",
		FP32TFLOPS:       0.67,
		MemBandwidthGBps: 58.3,
		MemoryBytes:      8 << 30,
		PCIeGBps:         8.0, // shared DRAM; copies are cheap but not free
		SMs:              2,
		LaunchOverhead:   25 * time.Microsecond,
		Efficiency:       0.40,
	}
)

// CPUClass describes the host CPU: core count and a relative speed factor
// (1.0 = one dual-socket Xeon core from the paper's servers).
type CPUClass struct {
	// Name is a human-readable label.
	Name string
	// Cores is the number of hardware threads usable by worker pools.
	Cores int
	// SpeedFactor scales per-op CPU durations (<1 is slower).
	SpeedFactor float64
	// GFLOPS is the per-core dense-math throughput, used when a graph is
	// migrated to run its GPU ops on the CPU (e.g. via an MKL executor).
	GFLOPS float64
}

// The CPU classes used in the paper's evaluation.
var (
	// ClassXeonDual models the dual 18-core Intel Xeon servers.
	ClassXeonDual = CPUClass{
		Name:        "2x Xeon 18-core",
		Cores:       36,
		SpeedFactor: 1.0,
		GFLOPS:      32,
	}
	// ClassCortexA57 models the Jetson TX2's quad-core ARM complex.
	ClassCortexA57 = CPUClass{
		Name:        "4x Cortex-A57",
		Cores:       4,
		SpeedFactor: 0.50,
		GFLOPS:      8,
	}
)

// PaperGPU looks up a GPU by the name the paper gives it ("V100",
// "RTX 2080 Ti", "GTX 1080 Ti" or "Jetson TX2") and returns its class with
// the CPU it sits beside in the paper's testbeds: the Jetson TX2's
// Cortex-A57, otherwise the dual-Xeon server. ok is false for any other
// name.
func PaperGPU(name string) (gpu GPUClass, cpu CPUClass, ok bool) {
	switch name {
	case "V100":
		return ClassV100, ClassXeonDual, true
	case "RTX 2080 Ti":
		return ClassRTX2080Ti, ClassXeonDual, true
	case "GTX 1080 Ti":
		return ClassGTX1080Ti, ClassXeonDual, true
	case "Jetson TX2":
		return ClassJetsonTX2, ClassCortexA57, true
	}
	return GPUClass{}, CPUClass{}, false
}
