// Package main is testonly's testdata. Every function and struct field
// is live except the ones whose line carries a want: only a_test.go,
// which the loader skips, reaches or sets those.
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
	var st settings
	st.stats.hits++
	st.hist[0] = 1
	st.lat.add(1)
	_ = st
	_ = limits{}.withDefaults()
	_ = point{1, 2}
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

// settings exercises the field rule: main stores into every field but
// debug, which only a_test.go sets.
type settings struct { // want `no production code sets settings\.debug$`
	Name  string `json:"name"` // encoding/json sets it
	stats tally  // st.stats.hits++ stores into stats
	hist  [4]int // st.hist[0] = 1 stores into hist
	lat   series // st.lat.add takes lat's address
	debug bool
}

// profile is an alias: settings' own declaration reports its fields.
type profile = settings

type tally struct{ hits int }

type series struct{ xs []int }

func (s *series) add(x int) { s.xs = append(s.xs, x) }

// limits is filled only by its value-receiver withDefaults, which
// changes a copy.
type limits struct { // want `no production code sets limits\.period$`
	period int
}

func (l limits) withDefaults() limits {
	if l.period == 0 {
		l.period = 1
	}
	return l
}

// point is set by a positional literal.
type point struct{ x, y int }

// pair's two fields are set only in a_test.go; one finding names both.
type pair struct{ lo, hi int } // want `no production code sets pair\.lo, hi$`
