// Package launchcfg parses the environment-variable configuration
// interface of the paper's Listing 1: input reuse between correlated
// models is enabled and wired up entirely through TF_* environment
// variables in the user's launch program, with a master model carrying
// the preprocessing stage and subsidiary models linking their recv nodes
// to it (§4).
package launchcfg

import (
	"fmt"
	"strings"
)

// The environment variables of Listing 1.
const (
	// EnvReuseInputs toggles input sharing ("True"/"False").
	EnvReuseInputs = "TF_SET_REUSE_INPUTS"
	// EnvMasterX and EnvMasterY name the master model's input ops.
	EnvMasterX = "TF_REUSE_INPUT_OP_NAME_MASTER_X"
	EnvMasterY = "TF_REUSE_INPUT_OP_NAME_MASTER_y"
	// EnvSubX and EnvSubY name the subsidiary models' input ops
	// (comma-separated when multiple models share the master's stage).
	EnvSubX = "TF_REUSE_INPUT_OPS_NAME_SUB_X"
	EnvSubY = "TF_REUSE_INPUT_OPS_NAME_SUB_y"
)

// Config is the parsed input-sharing configuration.
type Config struct {
	// ReuseInputs reports whether sharing is enabled.
	ReuseInputs bool
	// MasterX, MasterY are the master model's input op names.
	MasterX, MasterY string
	// SubX, SubY are the subsidiary models' input op names, pairwise.
	SubX, SubY []string
}

// FromEnv parses the Listing 1 variables through getenv (pass os.Getenv
// in production, a map lookup in tests). Absent or false EnvReuseInputs
// yields a disabled config; enabled configs are validated for complete
// master/sub pairs.
func FromEnv(getenv func(string) string) (Config, error) {
	var cfg Config
	switch strings.ToLower(strings.TrimSpace(getenv(EnvReuseInputs))) {
	case "", "false", "0", "no":
		return cfg, nil
	case "true", "1", "yes":
		cfg.ReuseInputs = true
	default:
		return cfg, fmt.Errorf("launchcfg: %s must be True or False, got %q",
			EnvReuseInputs, getenv(EnvReuseInputs))
	}
	cfg.MasterX = strings.TrimSpace(getenv(EnvMasterX))
	cfg.MasterY = strings.TrimSpace(getenv(EnvMasterY))
	if cfg.MasterX == "" || cfg.MasterY == "" {
		return Config{}, fmt.Errorf("launchcfg: %s requires %s and %s",
			EnvReuseInputs, EnvMasterX, EnvMasterY)
	}
	cfg.SubX = splitList(getenv(EnvSubX))
	cfg.SubY = splitList(getenv(EnvSubY))
	if len(cfg.SubX) == 0 {
		return Config{}, fmt.Errorf("launchcfg: %s requires at least one subsidiary in %s",
			EnvReuseInputs, EnvSubX)
	}
	if len(cfg.SubX) != len(cfg.SubY) {
		return Config{}, fmt.Errorf("launchcfg: %s and %s must pair up (%d vs %d entries)",
			EnvSubX, EnvSubY, len(cfg.SubX), len(cfg.SubY))
	}
	seen := map[string]bool{cfg.MasterX: true}
	for _, x := range cfg.SubX {
		if seen[x] {
			return Config{}, fmt.Errorf("launchcfg: duplicate input op name %q", x)
		}
		seen[x] = true
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if trimmed := strings.TrimSpace(part); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}
