// Package main is testonly's testdata. Every function is live except the
// ones whose line carries a want: only a_test.go, which the loader skips,
// reaches those.
package main

import "sort"

func main() {
	r := &runner{}
	r.register(r.onTick) // a method value passed as a callback
	hooks = append(hooks, func() { inClosure() })
	sort.Sort(byLen(nil))
	var s shape = square{}
	_ = s
	var m meter = &counter{}
	_ = m
}

func init() { fromInit() }

func fromInit() {}

type runner struct{ cb func() }

func (r *runner) register(fn func()) { r.cb = fn }

func (r *runner) onTick() {}

var hooks []func()

// inClosure is named only inside a closure, which folds into main.
func inClosure() {}

// table is a package-level variable; its initializer keeps stored live.
var table = map[string]func() int{"one": stored}

func stored() int { return 1 }

// shape is declared here; square's area matches it by name, so it stays
// live without a direct call.
type shape interface{ area() float64 }

type square struct{}

func (square) area() float64 { return 1 }

// circle matches shape by name too, but only a_test.go constructs one,
// so no production value can dispatch to its method.
type circle struct{}

func (circle) area() float64 { return 3 } // want `\(circle\)\.area is reached only from tests`

// triangle is named only in a blank assertion, which constructs nothing.
type triangle struct{}

var _ shape = triangle{}

func (triangle) area() float64 { return 2 } // want `\(triangle\)\.area is reached only from tests`

// counter is constructed in main; its value and pointer methods both
// match meter, so both stay live.
type meter interface {
	read() int
	bump()
}

type counter struct{ n int }

func (c counter) read() int { return c.n }

func (c *counter) bump() { c.n++ }

// byLen satisfies the imported sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func helper() int { return half() } // want `helper is reached only from tests`

// half is reached only through helper, so it is unreachable too.
func half() int { return 1 } // want `half is reached only from tests`

func (r *runner) reset() { r.cb = nil } // want `\(\*runner\)\.reset is reached only from tests`

// reference is kept on purpose.
//
//swlint:allow testonly a reference implementation a test compares against
func reference() int { return 2 }
