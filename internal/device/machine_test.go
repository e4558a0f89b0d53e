package device

import (
	"testing"

	"switchflow/internal/sim"
)

func TestMachineDeviceEnumeration(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTwoGPUServer(eng)
	if len(m.GPUs) != 2 {
		t.Fatalf("%d GPUs, want 2", len(m.GPUs))
	}
	if m.GPU(0).Class.Name != ClassGTX1080Ti.Name {
		t.Fatalf("gpu:0 = %s, want GTX 1080 Ti", m.GPU(0).Class.Name)
	}
	if m.GPU(1).Class.Name != ClassRTX2080Ti.Name {
		t.Fatalf("gpu:1 = %s, want RTX 2080 Ti", m.GPU(1).Class.Name)
	}
	if m.GPU(2) != nil {
		t.Fatal("GPU(2) should be nil on a two-GPU server")
	}
}

func TestMachineCopyPaths(t *testing.T) {
	eng := sim.NewEngine()
	m := NewTwoGPUServer(eng)
	tests := []struct {
		src, dst ID
		want     *CopyEngine
		wantErr  bool
	}{
		{CPUID, GPUID(0), m.HostToDevice(0), false},
		{CPUID, GPUID(1), m.HostToDevice(1), false},
		{GPUID(1), CPUID, m.DeviceToHost(1), false},
		{GPUID(0), GPUID(1), m.Peer(), false},
		{CPUID, CPUID, nil, true},
	}
	for _, tt := range tests {
		got, err := m.CopyPath(tt.src, tt.dst)
		if tt.wantErr {
			if err == nil {
				t.Errorf("CopyPath(%v,%v): want error", tt.src, tt.dst)
			}
			continue
		}
		if err != nil {
			t.Errorf("CopyPath(%v,%v): %v", tt.src, tt.dst, err)
			continue
		}
		if got != tt.want {
			t.Errorf("CopyPath(%v,%v) wrong engine", tt.src, tt.dst)
		}
	}
}

func TestV100ServerHasFourGPUs(t *testing.T) {
	m := NewV100Server(sim.NewEngine())
	if len(m.GPUs) != 4 {
		t.Fatalf("V100 server has %d GPUs, want 4", len(m.GPUs))
	}
	for _, g := range m.GPUs {
		if g.Mem.capacity != 32<<30 {
			t.Fatalf("V100 memory = %d, want 32 GiB", g.Mem.capacity)
		}
	}
}

func TestJetsonTX2Profile(t *testing.T) {
	m := NewJetsonTX2(sim.NewEngine())
	if m.CPU.Cores != 4 {
		t.Fatalf("TX2 cores = %d, want 4", m.CPU.Cores)
	}
	if len(m.GPUs) != 1 {
		t.Fatalf("TX2 GPUs = %d, want 1", len(m.GPUs))
	}
}

func TestDeviceIDString(t *testing.T) {
	tests := []struct {
		id   ID
		want string
	}{
		{CPUID, "cpu:0"},
		{GPUID(0), "gpu:0"},
		{GPUID(3), "gpu:3"},
	}
	for _, tt := range tests {
		if got := tt.id.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", tt.id, got, tt.want)
		}
	}
}

func TestPaperGPU(t *testing.T) {
	tests := []struct {
		name string
		gpu  GPUClass
		cpu  CPUClass
	}{
		{"V100", ClassV100, ClassXeonDual},
		{"RTX 2080 Ti", ClassRTX2080Ti, ClassXeonDual},
		{"GTX 1080 Ti", ClassGTX1080Ti, ClassXeonDual},
		{"Jetson TX2", ClassJetsonTX2, ClassCortexA57},
	}
	for _, tt := range tests {
		gpu, cpu, ok := PaperGPU(tt.name)
		if !ok || gpu != tt.gpu || cpu != tt.cpu {
			t.Errorf("PaperGPU(%q) = %s, %s, %v; want %s, %s", tt.name, gpu.Name, cpu.Name, ok, tt.gpu.Name, tt.cpu.Name)
		}
	}
	if _, _, ok := PaperGPU("Tesla V100"); ok {
		t.Error("PaperGPU accepts a class name the paper does not use")
	}
}
