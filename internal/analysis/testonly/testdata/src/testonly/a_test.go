package main

import "testing"

func TestHelpers(t *testing.T) {
	r := &runner{}
	r.reset()
	if (circle{}).area() <= (triangle{}).area() {
		t.Fatal("circle is not the larger shape")
	}
	if helper() != reference()-1 {
		t.Fatal("helper disagrees with reference")
	}
	if (settings{debug: true}).debug != (limits{period: 2}.withDefaults().period == 2) {
		t.Fatal("defaults overwrote a set period")
	}
	if p := (pair{lo: 1, hi: 2}); p.lo >= p.hi {
		t.Fatal("pair out of order")
	}
}
