package main

import "testing"

func TestHelpers(t *testing.T) {
	r := &runner{}
	r.reset()
	if helper() != reference()-1 {
		t.Fatal("helper disagrees with reference")
	}
}
