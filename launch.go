package switchflow

import (
	"os"

	"switchflow/internal/launchcfg"
)

// InputSharingConfig mirrors the paper's Listing 1 launcher interface:
// input reuse between correlated models configured purely through TF_*
// environment variables (§4 — "It takes ... 5 LOCs to share the input
// preprocessing stage between two models").
type InputSharingConfig struct {
	// Enabled reports whether TF_SET_REUSE_INPUTS is true.
	Enabled bool
	// MasterX, MasterY name the master model's input ops.
	MasterX, MasterY string
	// SubX, SubY name the subsidiary models' input ops, pairwise.
	SubX, SubY []string
}

// Models returns the sharing-group size (master + subsidiaries), zero
// when disabled.
func (c InputSharingConfig) Models() int {
	if !c.Enabled {
		return 0
	}
	return 1 + len(c.SubX)
}

// InputSharingFromEnv parses the Listing 1 environment variables from the
// process environment.
func InputSharingFromEnv() (InputSharingConfig, error) {
	cfg, err := launchcfg.FromEnv(os.Getenv)
	if err != nil {
		return InputSharingConfig{}, err
	}
	return InputSharingConfig{
		Enabled: cfg.ReuseInputs,
		MasterX: cfg.MasterX,
		MasterY: cfg.MasterY,
		SubX:    append([]string(nil), cfg.SubX...),
		SubY:    append([]string(nil), cfg.SubY...),
	}, nil
}
