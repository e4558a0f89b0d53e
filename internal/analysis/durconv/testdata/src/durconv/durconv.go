// Package durconv is testdata: float-to-Duration conversions.
package durconv

import (
	"math"
	"time"
)

type seconds float64

type dur = time.Duration

func flagged(f float64, g float32, s seconds, mean time.Duration) []time.Duration {
	return []time.Duration{
		time.Duration(f),                      // want `float-to-time.Duration conversion is implementation-defined out of range; use sim.Nanos`
		time.Duration(f * float64(mean)),      // want `use sim.Nanos`
		time.Duration(g),                      // want `use sim.Nanos`
		time.Duration(s * 1e9),                // want `use sim.Nanos`
		(time.Duration)(f),                    // want `use sim.Nanos`
		dur(f),                                // want `use sim.Nanos`
		time.Duration(math.Ceil(f)) * 2,       // want `use sim.Nanos`
		mean + time.Duration(f*float64(mean)), // want `use sim.Nanos`
	}
}

func clean(n int, i int64, mean time.Duration) []time.Duration {
	const perSec = 1e9
	return []time.Duration{
		time.Duration(n) * mean,
		time.Duration(i),
		time.Duration(1.5e9),
		time.Duration(perSec / 4),
		time.Duration(math.MaxInt64),
	}
}

// checked is a guarded conversion with its reason on record.
func checked(ns float64) time.Duration {
	if !(ns < 1<<62) {
		return 1 << 62
	}
	return time.Duration(ns) //swlint:allow durconv range-checked above
}
