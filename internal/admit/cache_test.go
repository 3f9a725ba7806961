package admit

import (
	"errors"
	"testing"

	"repro/internal/core"
)

func req(q ...int) core.Request { return core.Request{Q: q} }

func TestCacheHitMissAndEpochKeying(t *testing.T) {
	c := NewCache(8)
	r := &core.Result{}
	if _, _, ok := c.Get(1, req(1, 2)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, req(1, 2), r, nil)
	got, err, ok := c.Get(1, req(1, 2))
	if !ok || err != nil || got != r {
		t.Fatalf("want hit with stored result, got ok=%v err=%v", ok, err)
	}
	// Same request under a different epoch is a different key: a snapshot
	// publish invalidates by construction.
	if _, _, ok := c.Get(2, req(1, 2)); ok {
		t.Fatal("epoch 2 hit an epoch-1 entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	cases := []struct {
		name string
		a, b core.Request
		same bool
	}{
		{"sorted+dedup query set", core.Request{Q: []int{2, 1, 1}}, core.Request{Q: []int{1, 2}}, true},
		{"default eta folded", core.Request{Q: []int{1}, Eta: 0}, core.Request{Q: []int{1}, Eta: 1000}, true},
		{"distinct eta distinct", core.Request{Q: []int{1}, Eta: 5}, core.Request{Q: []int{1}, Eta: 6}, false},
		{"eta ignored off-LCTC", core.Request{Q: []int{1}, Algo: core.AlgoBasic, Eta: 5},
			core.Request{Q: []int{1}, Algo: core.AlgoBasic, Eta: 700}, true},
		{"default gamma folded", core.Request{Q: []int{1}, Gamma: 0}, core.Request{Q: []int{1}, Gamma: 3}, true},
		{"gamma ignored with hop distance", core.Request{Q: []int{1}, DistanceMode: core.DistHop, Gamma: 2},
			core.Request{Q: []int{1}, DistanceMode: core.DistHop, Gamma: 7}, true},
		{"different k distinct", core.Request{Q: []int{1}, K: 3}, core.Request{Q: []int{1}, K: 4}, false},
		{"different algo distinct", core.Request{Q: []int{1}}, core.Request{Q: []int{1}, Algo: core.AlgoBasic}, false},
		{"tenant not part of identity", core.Request{Q: []int{1}, Tenant: "a"},
			core.Request{Q: []int{1}, Tenant: "b"}, true},
		{"distance mode ignored off-LCTC",
			core.Request{Q: []int{1}, Algo: core.AlgoBasic},
			core.Request{Q: []int{1}, Algo: core.AlgoBasic, DistanceMode: core.DistHop}, true},
		{"hop distinct from truss distance for LCTC",
			core.Request{Q: []int{1}, Algo: core.AlgoLCTC},
			core.Request{Q: []int{1}, Algo: core.AlgoLCTC, DistanceMode: core.DistHop}, false},
	}
	for _, tc := range cases {
		if got := Key(7, tc.a) == Key(7, tc.b); got != tc.same {
			t.Errorf("%s: keys equal=%v, want %v (%q vs %q)", tc.name, got, tc.same, Key(7, tc.a), Key(7, tc.b))
		}
	}
	if Key(1, req(1)) == Key(2, req(1)) {
		t.Error("epoch not part of the key")
	}
}

func TestCacheLRUBound(t *testing.T) {
	c := NewCache(2)
	c.Put(1, req(1), &core.Result{}, nil)
	c.Put(1, req(2), &core.Result{}, nil)
	c.Get(1, req(1)) // touch 1 so 2 is the LRU victim
	c.Put(1, req(3), &core.Result{}, nil)
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries %d, want 2", st.Entries)
	}
	if _, _, ok := c.Get(1, req(2)); ok {
		t.Fatal("LRU victim still present")
	}
	if _, _, ok := c.Get(1, req(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, _, ok := c.Get(1, req(3)); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestCacheNegativeCaching(t *testing.T) {
	c := NewCache(4)
	sentinel := errors.New("no community")
	c.Put(1, req(9), nil, sentinel)
	res, err, ok := c.Get(1, req(9))
	if !ok || res != nil || !errors.Is(err, sentinel) {
		t.Fatalf("want cached failure, got ok=%v res=%v err=%v", ok, res, err)
	}
}

func TestCacheVerifyBypass(t *testing.T) {
	c := NewCache(4)
	vr := core.Request{Q: []int{1}, Verify: true}
	c.Put(1, vr, &core.Result{}, nil)
	if _, _, ok := c.Get(1, vr); ok {
		t.Fatal("verify request served from cache")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("verify Put stored an entry: %+v", st)
	}
}

func TestCacheSweep(t *testing.T) {
	c := NewCache(8)
	c.Put(1, req(1), &core.Result{}, nil)
	c.Put(1, req(2), &core.Result{}, nil)
	c.Put(2, req(1), &core.Result{}, nil)
	c.Sweep(2)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries after sweep %d, want 1", st.Entries)
	}
	if _, _, ok := c.Get(2, req(1)); !ok {
		t.Fatal("current-epoch entry swept")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put(1, req(1), &core.Result{}, nil)
	if _, _, ok := c.Get(1, req(1)); ok {
		t.Fatal("disabled cache produced a hit")
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("disabled cache stats %+v", st)
	}
}
