package launchcfg

import "testing"

func env(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

// listing1 is the exact configuration of the paper's Listing 1.
var listing1 = map[string]string{
	EnvReuseInputs: "True",
	EnvMasterX:     "X00",
	EnvMasterY:     "y00",
	EnvSubX:        "X01",
	EnvSubY:        "y01",
}

func TestListing1Parses(t *testing.T) {
	cfg, err := FromEnv(env(listing1))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.ReuseInputs {
		t.Fatal("reuse not enabled")
	}
	if cfg.MasterX != "X00" || cfg.MasterY != "y00" {
		t.Fatalf("master = %s/%s", cfg.MasterX, cfg.MasterY)
	}
	if len(cfg.SubX) != 1 || cfg.SubX[0] != "X01" || cfg.SubY[0] != "y01" {
		t.Fatalf("subs = %v/%v", cfg.SubX, cfg.SubY)
	}
}

func TestDisabledByDefault(t *testing.T) {
	cfg, err := FromEnv(env(nil))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ReuseInputs || len(cfg.SubX) != 0 {
		t.Fatalf("default config = %+v", cfg)
	}
}

func TestMultipleSubsidiaries(t *testing.T) {
	m := map[string]string{
		EnvReuseInputs: "true",
		EnvMasterX:     "X00", EnvMasterY: "y00",
		EnvSubX: "X01, X02,X03", EnvSubY: "y01,y02, y03",
	}
	cfg, err := FromEnv(env(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.SubX) != 3 || len(cfg.SubY) != 3 {
		t.Fatalf("subs = %v/%v, want three pairs", cfg.SubX, cfg.SubY)
	}
}

func TestValidationErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(map[string]string)
	}{
		{"bad bool", func(m map[string]string) { m[EnvReuseInputs] = "maybe" }},
		{"missing master x", func(m map[string]string) { delete(m, EnvMasterX) }},
		{"missing master y", func(m map[string]string) { delete(m, EnvMasterY) }},
		{"no subsidiaries", func(m map[string]string) { delete(m, EnvSubX); delete(m, EnvSubY) }},
		{"unpaired subs", func(m map[string]string) { m[EnvSubX] = "X01,X02" }},
		{"duplicate names", func(m map[string]string) { m[EnvSubX] = "X00" }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := make(map[string]string, len(listing1))
			for k, v := range listing1 {
				m[k] = v
			}
			tt.mutate(m)
			if _, err := FromEnv(env(m)); err == nil {
				t.Fatalf("config %v accepted", m)
			}
		})
	}
}

func TestBoolSpellings(t *testing.T) {
	for _, s := range []string{"True", "true", "TRUE", " true ", "1", "yes"} {
		m := map[string]string{
			EnvReuseInputs: s,
			EnvMasterX:     "X00", EnvMasterY: "y00",
			EnvSubX: "X01", EnvSubY: "y01",
		}
		cfg, err := FromEnv(env(m))
		if err != nil || !cfg.ReuseInputs {
			t.Errorf("FromEnv with %s=%q: cfg=%+v err=%v", EnvReuseInputs, s, cfg, err)
		}
	}
	for _, s := range []string{"", "False", "false", "0", "no", "  "} {
		cfg, err := FromEnv(env(map[string]string{EnvReuseInputs: s}))
		if err != nil || cfg.ReuseInputs {
			t.Errorf("FromEnv with %s=%q: cfg=%+v err=%v", EnvReuseInputs, s, cfg, err)
		}
	}
}

func TestDuplicateAmongSubsidiaries(t *testing.T) {
	m := map[string]string{
		EnvReuseInputs: "True",
		EnvMasterX:     "X00", EnvMasterY: "y00",
		EnvSubX: "X01,X01", EnvSubY: "y01,y02",
	}
	if _, err := FromEnv(env(m)); err == nil {
		t.Fatal("duplicate subsidiary input op accepted")
	}
}

func TestWhitespaceOnlySubsidiariesRejected(t *testing.T) {
	m := map[string]string{
		EnvReuseInputs: "True",
		EnvMasterX:     "X00", EnvMasterY: "y00",
		EnvSubX: " , ,", EnvSubY: "",
	}
	if _, err := FromEnv(env(m)); err == nil {
		t.Fatal("whitespace-only subsidiary list accepted")
	}
}

func TestErrorsReturnZeroConfig(t *testing.T) {
	m := map[string]string{EnvReuseInputs: "True"} // missing everything else
	cfg, err := FromEnv(env(m))
	if err == nil {
		t.Fatal("incomplete config accepted")
	}
	if cfg.ReuseInputs || cfg.MasterX != "" || cfg.MasterY != "" || len(cfg.SubX) != 0 || len(cfg.SubY) != 0 {
		t.Fatalf("error path leaked partial config: %+v", cfg)
	}
}
