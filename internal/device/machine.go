package device

import (
	"fmt"

	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/topology"
)

// Machine assembles the devices of one server: a CPU class, zero or more
// GPUs, and per-GPU copy engines (host-to-device, device-to-host, and a
// peer path used for migration).
type Machine struct {
	// Eng is the virtual clock every device shares.
	Eng *sim.Engine
	// CPU describes the host processor.
	CPU CPUClass
	// GPUs are the attached accelerators, indexed by GPUID.
	GPUs []*GPU

	bus    *obs.Bus
	h2d    []*CopyEngine
	d2h    []*CopyEngine
	peer   *CopyEngine
	fabric *topology.Fabric
}

// NewMachine builds a machine with the given CPU and GPU classes. All of
// the machine's devices publish to one shared observability bus, so a
// single subscriber sees every layer's events in one sequence.
func NewMachine(eng *sim.Engine, cpu CPUClass, gpuClasses ...GPUClass) *Machine {
	m := &Machine{Eng: eng, CPU: cpu, bus: obs.NewBus(eng)}
	peerBW := 0.0
	for i, class := range gpuClasses {
		gpu := NewGPU(eng, GPUID(i), class)
		gpu.SetBus(m.bus)
		m.GPUs = append(m.GPUs, gpu)
		m.h2d = append(m.h2d, NewCopyEngine(eng, class.PCIeGBps))
		m.d2h = append(m.d2h, NewCopyEngine(eng, class.PCIeGBps))
		if class.PCIeGBps > peerBW {
			peerBW = class.PCIeGBps
		}
	}
	if peerBW == 0 {
		peerBW = 11.3
	}
	m.peer = NewCopyEngine(eng, peerBW)
	// Default interconnect: every GPU pair shares the PCIe tree at the
	// peer-path bandwidth. Testbeds with NVLink install a richer fabric
	// via SetFabric before jobs arrive.
	m.fabric = topology.NewPCIe(len(gpuClasses), peerBW)
	return m
}

// Fabric returns the machine's GPU interconnect model.
func (m *Machine) Fabric() *topology.Fabric { return m.fabric }

// SetFabric installs an interconnect model spanning exactly the
// machine's GPUs. Call at construction time, before jobs are admitted —
// all-reduce pricing reads the fabric on every gang step.
func (m *Machine) SetFabric(f *topology.Fabric) error {
	if f == nil || f.Size() != len(m.GPUs) {
		return fmt.Errorf("device: fabric spans %d GPUs, machine has %d", sizeOf(f), len(m.GPUs))
	}
	m.fabric = f
	return nil
}

func sizeOf(f *topology.Fabric) int {
	if f == nil {
		return 0
	}
	return f.Size()
}

// Bus returns the machine's shared observability bus.
func (m *Machine) Bus() *obs.Bus { return m.bus }

// GPU returns the i-th GPU or nil when out of range.
func (m *Machine) GPU(i int) *GPU {
	if i < 0 || i >= len(m.GPUs) {
		return nil
	}
	return m.GPUs[i]
}

// HostToDevice returns the upload channel of GPU i.
func (m *Machine) HostToDevice(i int) *CopyEngine { return m.h2d[i] }

// DeviceToHost returns the download channel of GPU i.
func (m *Machine) DeviceToHost(i int) *CopyEngine { return m.d2h[i] }

// Peer returns the GPU-to-GPU copy path (PCIe 3.0 x16 in the paper's
// servers; Table 1 measures state transfer over this path).
func (m *Machine) Peer() *CopyEngine { return m.peer }

// CopyPath returns the channel a transfer from src to dst uses.
func (m *Machine) CopyPath(src, dst ID) (*CopyEngine, error) {
	switch {
	case src.Kind == KindCPU && dst.Kind == KindGPU:
		return m.h2d[dst.Index], nil
	case src.Kind == KindGPU && dst.Kind == KindCPU:
		return m.d2h[src.Index], nil
	case src.Kind == KindGPU && dst.Kind == KindGPU:
		return m.peer, nil
	default:
		return nil, fmt.Errorf("no copy path %v -> %v", src, dst)
	}
}

// Healthy reports whether id can run work: the CPU always can; a GPU can
// unless it has failed (out-of-range GPU indices are unhealthy too).
func (m *Machine) Healthy(id ID) bool {
	if id.Kind != KindGPU {
		return true
	}
	gpu := m.GPU(id.Index)
	return gpu != nil && !gpu.Failed()
}

// Placeable reports whether id may receive new placements: healthy and,
// for GPUs, not administratively draining. Drained devices keep running
// what they already host until the scheduler moves it off.
func (m *Machine) Placeable(id ID) bool {
	if id.Kind != KindGPU {
		return true
	}
	gpu := m.GPU(id.Index)
	return gpu != nil && !gpu.Failed() && !gpu.Draining()
}

// The paper's testbeds (§5.1).

// NewTwoGPUServer models the server with a GTX 1080 Ti (gpu:0) and an
// RTX 2080 Ti (gpu:1).
func NewTwoGPUServer(eng *sim.Engine) *Machine {
	return NewMachine(eng, ClassXeonDual, ClassGTX1080Ti, ClassRTX2080Ti)
}

// NewV100Server models the 4x Tesla V100 server.
func NewV100Server(eng *sim.Engine) *Machine {
	return NewMachine(eng, ClassXeonDual, ClassV100, ClassV100, ClassV100, ClassV100)
}

// NewJetsonTX2 models the embedded board (CPU and GPU share DRAM; the
// shared pool is attached to the GPU device).
func NewJetsonTX2(eng *sim.Engine) *Machine {
	return NewMachine(eng, ClassCortexA57, ClassJetsonTX2)
}

// NewNVLinkV100Server models the 4x Tesla V100 server with NVLink pairs:
// GPUs {0,1} and {2,3} are NVLink islands; cross-island traffic rides
// PCIe. This is the testbed where gang placement quality is measurable —
// a 2-replica gang on one island syncs gradients several times faster
// than the same gang straddling the PCIe switch.
func NewNVLinkV100Server(eng *sim.Engine) *Machine {
	m := NewV100Server(eng)
	fabric := topology.NVLinkIslands(len(m.GPUs), 2, ClassV100.PCIeGBps, topology.DefaultNVLinkGBps)
	if err := m.SetFabric(fabric); err != nil {
		panic(err) // unreachable: fabric is sized from the machine itself
	}
	return m
}
