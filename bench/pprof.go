package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Host-time attribution from runtime/pprof profiles. The profile format
// is gzipped protobuf (github.com/google/pprof profile.proto); only the
// handful of fields the attribution reads are decoded here, so the
// benchmark needs nothing beyond the standard library.

// share is one bucket's percentage of a profile.
type share struct {
	Name string  `json:"name"`
	Pct  float64 `json:"pct"`
}

// layerPkgs are the repository packages host time is attributed to; the
// remaining internal packages fold into "other".
var layerPkgs = []string{"sim", "device", "threadpool", "executor", "core", "workload", "cluster", "traffic", "obs", "cost"}

// cpuBuckets and allocBuckets name the per-layer profile metrics.
var (
	cpuBuckets   = append(append([]string{}, layerPkgs...), "malloc", "gc", "other")
	allocBuckets = append(append([]string{}, layerPkgs...), "other")
)

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	types   []string
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]uint64   // function id -> name's string-table index
	strs    []string
}

var errTruncated = errors.New("truncated protobuf")

// fields calls fn for each field of one protobuf message: varint and
// fixed-width values arrive in v, length-delimited ones in data.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends one occurrence of a repeated varint field, which the
// encoder writes either packed (data) or as a single value (v).
func varints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]uint64{}}
	var typeIdx []uint64
	err = fields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			return fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample: Sample{location_id, value}
			var s profSample
			var vals []uint64
			err := fields(data, func(n int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = varints(s.locs, v, d)
				case 2:
					vals, err = varints(vals, v, d)
				}
				return err
			})
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id, line: Line{function_id}}
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function: Function{id, name}
			var id, name uint64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range typeIdx {
		p.types = append(p.types, p.str(i))
	}
	return p, nil
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// stack returns a sample's function names, innermost first (a location's
// inlined frames are listed innermost first too).
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			out = append(out, p.str(p.funcs[fn]))
		}
	}
	return out
}

// sums totals the named sample value per bucket.
func (p *profile) sums(valueType string, bucket func([]string) string) (map[string]float64, error) {
	idx := slices.Index(p.types, valueType)
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q values (types %v)", valueType, p.types)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[bucket(p.stack(s))] += float64(s.values[idx])
		}
	}
	return out, nil
}

// internalPkg returns the repository package of a function name, folding
// subpackages into their parent (sim/shard counts as sim).
func internalPkg(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "switchflow/internal/")
	if !ok {
		return "", false
	}
	if end := strings.IndexAny(rest, "./"); end >= 0 {
		rest = rest[:end]
	}
	for _, p := range layerPkgs {
		if p == rest {
			return p, true
		}
	}
	return "other", true
}

var (
	// benchFrames are the benchmark's own work inside the timed phase
	// (the memory profiler's sampling, the interleaved reference rounds),
	// left out of the attribution.
	benchFrames  = []string{"runtime.profilealloc", "runtime.mProf_Malloc", "main.(*refLoop)"}
	gcFrames     = []string{"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.wbBufFlush"}
	mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.growslice", "runtime.makeslice", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)"}
)

func anyFrame(stack, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// cpuBucket charges a CPU sample to garbage collection, to allocation,
// or else to the innermost repository frame, so runtime and
// standard-library leaves (map lookups, sorting) count for the layer
// that called them.
func cpuBucket(stack []string) string {
	switch {
	case anyFrame(stack, benchFrames):
		return "bench"
	case anyFrame(stack, gcFrames):
		return "gc"
	case anyFrame(stack, mallocFrames):
		return "malloc"
	}
	return allocBucket(stack)
}

// allocBucket charges an allocation to its innermost repository frame.
func allocBucket(stack []string) string {
	if anyFrame(stack, benchFrames) {
		return "bench"
	}
	for _, f := range stack {
		if pkg, ok := internalPkg(f); ok {
			return pkg
		}
	}
	return "other"
}

func percentages(sums map[string]float64, buckets []string) []share {
	total := 0.0
	for _, b := range buckets {
		total += sums[b]
	}
	out := make([]share, len(buckets))
	for i, b := range buckets {
		out[i].Name = b
		if total > 0 {
			out[i].Pct = 100 * sums[b] / total
		}
	}
	return out
}

// cpuShares attributes a CPU profile's sampled time.
func cpuShares(data []byte) ([]share, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	sums, err := p.sums("cpu", cpuBucket)
	if err != nil {
		return nil, err
	}
	return percentages(sums, cpuBuckets), nil
}

// allocShares attributes the allocations sampled between two cumulative
// allocation profiles, by object count.
func allocShares(before, after []byte) ([]share, error) {
	b, err := parseProfile(before)
	if err != nil {
		return nil, err
	}
	a, err := parseProfile(after)
	if err != nil {
		return nil, err
	}
	sb, err := b.sums("alloc_objects", allocBucket)
	if err != nil {
		return nil, err
	}
	sa, err := a.sums("alloc_objects", allocBucket)
	if err != nil {
		return nil, err
	}
	for _, k := range allocBuckets {
		sa[k] -= sb[k]
	}
	return percentages(sa, allocBuckets), nil
}
