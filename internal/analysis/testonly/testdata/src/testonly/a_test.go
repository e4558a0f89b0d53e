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
}
