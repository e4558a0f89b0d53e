package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// flags are swtrace's command-line values, as run takes them.
type flags struct {
	models, gpu, sched, format, prio string
	window                           time.Duration
	width                            int
}

func (f flags) run(out string) error {
	return run(f.models, f.gpu, f.sched, f.format, f.prio, out, f.window, 16, f.width)
}

var goodFlags = flags{
	models: "ResNet50,ResNet50", gpu: "V100", sched: "threaded", format: "ascii",
	window: time.Second, width: 100,
}

// Every bad flag is an error before the simulation runs: no panic, and no
// -o file left behind.
func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name    string
		edit    func(*flags)
		wantErr string
	}{
		{"zero width", func(f *flags) { f.width = 0 }, "-width must be positive"},
		{"negative width", func(f *flags) { f.width = -3 }, "-width must be positive"},
		{"zero window", func(f *flags) { f.window = 0 }, "-for must be positive"},
		{"window shorter than the columns", func(f *flags) { f.window = 50 }, "shorter than one nanosecond"},
		{"unknown format", func(f *flags) { f.format = "svg" }, `unknown format "svg"`},
		{"unknown scheduler", func(f *flags) { f.sched = "mps" }, `unknown scheduler "mps"`},
		{"unknown GPU", func(f *flags) { f.gpu = "A100" }, `unknown GPU "A100"`},
		{"unknown model", func(f *flags) { f.models = "ResNet50,NoSuchNet" }, "NoSuchNet"},
		{"priority count", func(f *flags) { f.prio = "1" }, "-prio lists 1 priorities for 2 models"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := goodFlags
			tt.edit(&f)
			out := filepath.Join(t.TempDir(), "trace.out")
			if err := f.run(out); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("run error = %v, want one containing %q", err, tt.wantErr)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("bad flags left %s behind (stat error %v)", out, err)
			}
		})
	}
}

// Each format writes its output once the flags are good.
func TestRunWritesEachFormat(t *testing.T) {
	for _, format := range []string{"ascii", "json", "profile", "chrome"} {
		t.Run(format, func(t *testing.T) {
			f := goodFlags
			f.format, f.sched, f.window = format, "switchflow", 200*time.Millisecond
			out := filepath.Join(t.TempDir(), "trace.out")
			if err := f.run(out); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
				t.Fatalf("no %s output written (stat error %v)", format, err)
			}
		})
	}
}
