package main

import "testing"

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run("f99", params{})
	if err == nil || err.Error() != `unknown experiment "f99"` {
		t.Fatalf(`run("f99") = %v, want unknown experiment "f99"`, err)
	}
}
