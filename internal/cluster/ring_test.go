package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"switchflow/internal/device"
	"switchflow/internal/traffic"
	"switchflow/internal/workload"
)

// buildRing is the reference ring: a fresh build over set from the
// formatted point keys "name#v", sorted with sort.Slice. The router's
// cached ring must match it point for point.
func buildRing(set []liveReplica) hashRing {
	var r hashRing
	for i, lr := range set {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: fnv64a(fmt.Sprintf("%s#%d", lr.h.Cfg.Name, v)),
				idx:  i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestPointHashMatchesFormattedKey pins pointHash to the FNV-1a hash of
// the formatted key for every replica name a 12-tenant fleet reaches and
// every vnode: a single differing bit would move keys between replicas.
func TestPointHashMatchesFormattedKey(t *testing.T) {
	for _, tn := range traffic.SyntheticTenants(12, 97) {
		for r := 0; r <= 12; r++ {
			name := fmt.Sprintf("%s/r%d", tn.ID, r)
			for v := 0; v < ringVnodes; v++ {
				if got, want := pointHash(name, v), fnv64a(fmt.Sprintf("%s#%d", name, v)); got != want {
					t.Fatalf("pointHash(%q, %d) = %#x, want %#x", name, v, got, want)
				}
			}
		}
	}
	for _, v := range []int{100, 12345, -7} {
		if got, want := pointHash("x", v), fnv64a(fmt.Sprintf("x#%d", v)); got != want {
			t.Fatalf("pointHash(%q, %d) = %#x, want %#x", "x", v, got, want)
		}
	}
}

// TestRingRefreshAllocFree: a barrier whose live set is unchanged keeps
// the cached ring and allocates nothing; a changed set rebuilds it into
// the same buffers, identical to a fresh build.
func TestRingRefreshAllocFree(t *testing.T) {
	var set []liveReplica
	for _, n := range []string{"t00-gold/r0", "t00-gold/r1", "t00-gold/r2"} {
		set = append(set, liveReplica{h: &JobHandle{Cfg: workload.Config{Name: n}}})
	}
	var r hashRing
	if !r.refresh(set) {
		t.Fatal("first refresh did not build the ring")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if r.refresh(set) {
			t.Fatal("refresh over an unchanged live set rebuilt the ring")
		}
	}); allocs != 0 {
		t.Fatalf("refresh over an unchanged live set: %v allocs, want 0", allocs)
	}
	// The same handles in another order change every idx they own: the
	// ring must rebuild, into its existing buffers.
	set[1], set[2] = set[2], set[1]
	if allocs := testing.AllocsPerRun(1, func() { r.refresh(set) }); allocs != 0 {
		t.Fatalf("rebuild within capacity: %v allocs, want 0", allocs)
	}
	if fresh := buildRing(set); !slices.Equal(r.points, fresh.points) {
		t.Fatalf("cached ring %v differs from fresh build %v", r.points, fresh.points)
	}
}

// FuzzRingMatchesFresh drives one tenant's replica set through add,
// stop, crash and route operations decoded from the input, and after
// every barrier checks the router's cached ring against a fresh build
// over the live set: every probed key must map to the same handle, and
// never to a stopped or crashed one.
//
// Each input byte is one operation: the low two bits pick add (0), stop
// (1), crash (2) or a barrier (3); the high six bits pick the replica to
// stop or crash, or seed the barrier's probe keys.
func FuzzRingMatchesFresh(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 5, 3, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 3, 1 | 1<<2, 3, 2 | 2<<2, 3, 0, 3, 1, 1, 3})
	f.Add([]byte{0, 3, 1, 3, 0, 0, 3, 2, 2 | 1<<2, 3, 0, 3})
	f.Add([]byte{0, 0, 3, 1 | 1<<2, 0, 3, 2 | 2<<2, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		c := New(Collocate{}, 1, device.ClassV100, device.ClassV100)
		gen, err := traffic.NewGenerator(flatProfile(1, 20))
		if err != nil {
			t.Fatal(err)
		}
		fe, err := NewFrontend(c, gen, RouteHash, nil)
		if err != nil {
			t.Fatal(err)
		}
		fe.Start(1)
		svc := fe.services[0]
		crash := errors.New("injected crash")
		for _, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0:
				if len(svc.replicas) < 12 {
					fe.addReplica(svc, c.Now())
				}
			case 1:
				c.Stop(svc.replicas[arg%len(svc.replicas)])
			case 2:
				if h := svc.replicas[arg%len(svc.replicas)]; h.Job != nil {
					h.Job.Crash(crash)
				}
			case 3:
				c.RunFor(c.Epoch())
				checkRing(t, svc, uint64(arg))
			}
		}
	})
}

// checkRing compares svc's cached ring with a fresh build over its
// current live replicas for a spread of keys derived from seed.
func checkRing(t *testing.T, svc *Service, seed uint64) {
	t.Helper()
	var live []liveReplica
	for _, h := range svc.replicas {
		if h.live() {
			live = append(live, liveReplica{h: h})
		}
	}
	if len(live) != len(svc.live) {
		t.Fatalf("router sees %d live replicas, want %d", len(svc.live), len(live))
	}
	fresh := buildRing(live)
	for k := uint64(0); k < 256; k++ {
		key := (seed + k) * 0x9e3779b97f4a7c15
		want, got := fresh.lookup(key), svc.ring.lookup(key)
		if (want < 0) != (got < 0) {
			t.Fatalf("key %#x: cached ring gives %d, fresh ring %d", key, got, want)
		}
		if got < 0 {
			continue
		}
		h := svc.live[got].h
		if h != live[want].h {
			t.Fatalf("key %#x: cached ring picks %s, fresh ring %s", key, h.Cfg.Name, live[want].h.Cfg.Name)
		}
		if !h.live() {
			t.Fatalf("key %#x routed to dead replica %s", key, h.Cfg.Name)
		}
	}
}
