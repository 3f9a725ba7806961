package serve

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// fastOpts publishes eagerly so tests see many epochs.
func fastOpts() Options {
	return Options{
		QueueSize:       256,
		MaxBatch:        32,
		PublishDirty:    24,
		PublishInterval: 20 * time.Millisecond,
	}
}

// checkSnapshotAgainstScratch compares one published snapshot against a
// from-scratch Decompose + BuildFromDecomposition on the snapshot's own
// frozen graph: every edge label, then TrussOnly/Basic/LCTC answers for a
// set of query vertex pairs.
func checkSnapshotAgainstScratch(t *testing.T, snap *Snapshot, queries [][]int) {
	t.Helper()
	g := snap.Graph()
	refIx := trussindex.BuildFromDecomposition(g, truss.Decompose(g))
	for e := int32(0); e < int32(g.M()); e++ {
		if got, want := snap.Index().EdgeTrussByID(e), refIx.EdgeTrussByID(e); got != want {
			u, v := g.EdgeEndpoints(e)
			t.Fatalf("epoch %d: τ(%d,%d) = %d, from-scratch %d", snap.Epoch(), u, v, got, want)
		}
	}
	liveS := core.NewSearcher(snap.Index())
	refS := core.NewSearcher(refIx)
	for _, q := range queries {
		for _, algo := range []core.Algo{core.AlgoTrussOnly, core.AlgoBasic, core.AlgoLCTC} {
			got, gotErr := search(liveS, algo, q)
			want, wantErr := search(refS, algo, q)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("epoch %d: %s(%v) err=%v, from-scratch err=%v",
					snap.Epoch(), algo, q, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.K != want.K || !sameVertexSet(got.Vertices(), want.Vertices()) {
				t.Fatalf("epoch %d: %s(%v) = k=%d n=%d, from-scratch k=%d n=%d",
					snap.Epoch(), algo, q, got.K, got.N(), want.K, want.N())
			}
		}
	}
}

// search runs one algo query for q directly on s, outside the manager.
func search(s *core.Searcher, algo core.Algo, q []int) (*core.Community, error) {
	res, err := s.Search(context.Background(), core.Request{Q: q, Algo: algo})
	if err != nil {
		return nil, err
	}
	return &res.Community, nil
}

func sameVertexSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialEpochStream is the acceptance differential: a random
// 1000-op insert/delete stream (including foreign edges that force rebases
// and vertex-space growth), checking at every published epoch that the
// snapshot's labels and TrussOnly/Basic/LCTC answers equal a from-scratch
// decomposition and index build on the same graph state.
func TestDifferentialEpochStream(t *testing.T) {
	g, _ := gen.CommunityGraph(gen.CommunityParams{
		N: 150, NumCommunities: 8, MinSize: 8, MaxSize: 22,
		Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 120, Seed: 0x5EED,
	})
	rng := gen.NewRNG(0xCAFE)

	// Model: the authoritative edge set, mirrored by every applied update.
	model := map[graph.EdgeKey]bool{}
	for _, k := range g.EdgeKeys() {
		model[k] = true
	}
	modelKeys := func() []graph.EdgeKey {
		keys := make([]graph.EdgeKey, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}

	epochsChecked := 0
	opts := fastOpts()
	opts.OnPublish = func(snap *Snapshot) {
		if snap.Epoch() == 1 {
			return
		}
		epochsChecked++
		// Queries: a few fixed pairs sampled from the seed graph's vertex
		// range — deterministic across epochs, mix of satisfiable and not.
		queries := [][]int{{1, 2}, {10, 11, 12}, {30, 55}, {80, 81}, {100, 120}}
		n := snap.Graph().N()
		valid := queries[:0]
		for _, q := range queries {
			ok := true
			for _, v := range q {
				if v >= n {
					ok = false
				}
			}
			if ok {
				valid = append(valid, q)
			}
		}
		checkSnapshotAgainstScratch(t, snap, valid)
	}
	m := NewManager(g, opts)
	defer m.Close()

	maxV := g.N() + 20 // leave headroom so the stream grows the ID space
	for op := 0; op < 1000; op++ {
		var up Update
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // delete a random existing edge
			keys := modelKeys()
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			u, v := k.Endpoints()
			up = Update{Op: OpRemove, U: u, V: v}
			delete(model, k)
		case 4, 5, 6: // re-insert or insert a random pair
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v {
				continue
			}
			up = Update{Op: OpAdd, U: u, V: v}
			model[graph.Key(u, v)] = true
		case 7, 8: // foreign insert possibly growing the vertex space
			u, v := rng.Intn(maxV), rng.Intn(maxV)
			if u == v {
				continue
			}
			up = Update{Op: OpAdd, U: u, V: v}
			model[graph.Key(u, v)] = true
		default: // remove a possibly-nonexistent pair (no-op path)
			u, v := rng.Intn(maxV), rng.Intn(maxV)
			if u == v {
				continue
			}
			up = Update{Op: OpRemove, U: u, V: v}
			delete(model, graph.Key(u, v))
		}
		if err := m.Apply(up); err != nil {
			t.Fatal(err)
		}
		if op%250 == 249 {
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	// The final snapshot must hold exactly the model's edge set.
	snap := m.Acquire()
	defer snap.Release()
	fg := snap.Graph()
	if fg.M() != len(model) {
		t.Fatalf("final snapshot has %d edges, model has %d", fg.M(), len(model))
	}
	for _, k := range fg.EdgeKeys() {
		if !model[k] {
			t.Fatalf("final snapshot contains %s, absent from model", k)
		}
	}
	if epochsChecked < 10 {
		t.Fatalf("only %d epochs were published and checked; stream should produce many", epochsChecked)
	}
	st := m.Stats()
	if st.Epoch != snap.Epoch() {
		t.Fatalf("stats epoch %d != snapshot epoch %d", st.Epoch, snap.Epoch())
	}
}

// TestSnapshotRefcountRetirement pins the RCU lifecycle: an old epoch held
// by a reader stays valid (and queryable) across later publishes, and
// retires exactly when its last reference drops.
func TestSnapshotRefcountRetirement(t *testing.T) {
	g := gen.ErdosRenyi(80, 0.15, 3)
	m := NewManager(g, fastOpts())
	defer m.Close()

	old := m.Acquire()
	oldEpoch := old.Epoch()
	oldM := old.Graph().M()

	// Push enough deletes to force a publish.
	n := 0
	for _, k := range g.EdgeKeys() {
		u, v := k.Endpoints()
		if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); err != nil {
			t.Fatal(err)
		}
		if n++; n >= 30 {
			break
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	fresh := m.Acquire()
	if fresh.Epoch() <= oldEpoch {
		t.Fatalf("no new epoch published: %d -> %d", oldEpoch, fresh.Epoch())
	}
	if fresh.Graph().M() != oldM-30 {
		t.Fatalf("new snapshot has %d edges, want %d", fresh.Graph().M(), oldM-30)
	}
	// The held old snapshot must be untouched by the updates.
	if old.Graph().M() != oldM {
		t.Fatal("held snapshot mutated by later updates")
	}
	if _, err := search(core.NewSearcher(old.Index()), core.AlgoTrussOnly, []int{0, 1}); err != nil && !errors.Is(err, trussindex.ErrNoCommunity) {
		t.Fatalf("held snapshot not queryable: %v", err)
	}

	st := m.Stats()
	if st.LiveSnapshots < 2 {
		t.Fatalf("expected the held old epoch to keep >= 2 snapshots live, got %d", st.LiveSnapshots)
	}
	before := st.Retired
	old.Release()
	st = m.Stats()
	if st.Retired != before+1 {
		t.Fatalf("releasing the last reader did not retire the snapshot (retired %d -> %d)", before, st.Retired)
	}
	fresh.Release()
}

// TestRebaseGrowsVertexSpace inserts edges on vertices beyond the seed
// graph's ID range and checks they become queryable after the rebase.
func TestRebaseGrowsVertexSpace(t *testing.T) {
	g := gen.ErdosRenyi(30, 0.2, 9)
	m := NewManager(g, fastOpts())
	defer m.Close()

	// A fresh 5-clique on brand-new vertex IDs: trussness 5.
	nv := []int{g.N() + 1, g.N() + 2, g.N() + 3, g.N() + 4, g.N() + 5}
	for i := 0; i < len(nv); i++ {
		for j := i + 1; j < len(nv); j++ {
			if err := m.Apply(Update{Op: OpAdd, U: nv[i], V: nv[j]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := m.Acquire()
	defer snap.Release()
	if snap.Graph().N() < nv[len(nv)-1]+1 {
		t.Fatalf("vertex space not grown: n=%d", snap.Graph().N())
	}
	c, err := search(core.NewSearcher(snap.Index()), core.AlgoTrussOnly, []int{nv[0], nv[4]})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 5 || c.N() != 5 {
		t.Fatalf("clique community: k=%d n=%d, want k=5 n=5", c.K, c.N())
	}
}

// TestCancelledForeignAddDoesNotInflateVertexSpace: an add on a huge vertex
// ID that is removed again before any publish must not leave the watermark
// behind — the next rebase sizes the base from the *live* pending set.
func TestCancelledForeignAddDoesNotInflateVertexSpace(t *testing.T) {
	g := gen.ErdosRenyi(30, 0.2, 13)
	m := NewManager(g, fastOpts())
	defer m.Close()

	huge := graph.MaxVertexID
	if err := m.Apply(Update{Op: OpAdd, U: 0, V: huge}); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Update{Op: OpRemove, U: 0, V: huge}); err != nil {
		t.Fatal(err)
	}
	// A modest foreign add forces the rebase.
	if err := m.Apply(Update{Op: OpAdd, U: g.N(), V: 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := m.Acquire()
	defer snap.Release()
	if snap.Graph().N() != g.N()+1 {
		t.Fatalf("snapshot n=%d, want %d (cancelled add must not grow the ID space)",
			snap.Graph().N(), g.N()+1)
	}
	if !snap.Graph().HasEdge(g.N(), 0) {
		t.Fatal("surviving foreign edge missing")
	}
}

// TestRebaseFullFallback drives a foreign batch big enough to exceed
// RebuildFraction and checks the full-rebuild path is taken and correct.
func TestRebaseFullFallback(t *testing.T) {
	g := gen.ErdosRenyi(20, 0.2, 2)
	opts := fastOpts()
	opts.RebuildFraction = 0.01
	m := NewManager(g, opts)
	defer m.Close()

	base := g.N()
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if err := m.Apply(Update{Op: OpAdd, U: base + i, V: base + j}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.FullRebuilds == 0 {
		t.Fatal("expected the oversized foreign batch to force a full rebuild")
	}
	snap := m.Acquire()
	defer snap.Release()
	checkSnapshotAgainstScratch(t, snap, [][]int{{base, base + 5}})
}

// TestIdempotentAndInvalidOps checks duplicate adds, removes of absent
// edges, and malformed endpoints.
func TestIdempotentAndInvalidOps(t *testing.T) {
	g := gen.ErdosRenyi(25, 0.2, 4)
	m := NewManager(g, fastOpts())
	defer m.Close()

	u, v := g.EdgeEndpoints(0)
	for i := 0; i < 3; i++ {
		if err := m.Apply(Update{Op: OpAdd, U: u, V: v}); err != nil { // already alive
			t.Fatal(err)
		}
	}
	if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); err != nil { // now absent
		t.Fatal(err)
	}
	if err := m.Apply(Update{Op: OpAdd, U: 3, V: 3}); err != nil { // self-loop
		t.Fatal(err)
	}
	if err := m.Apply(Update{Op: OpAdd, U: -1, V: 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Adds != 0 || st.Removes != 1 {
		t.Fatalf("applied adds=%d removes=%d, want 0/1", st.Adds, st.Removes)
	}
	if st.Rejected != 2 {
		t.Fatalf("rejected=%d, want 2", st.Rejected)
	}
	snap := m.Acquire()
	defer snap.Release()
	if snap.Graph().M() != g.M()-1 {
		t.Fatalf("final m=%d, want %d", snap.Graph().M(), g.M()-1)
	}
}

// TestCloseDrainsAndRejects: updates enqueued before Close are applied and
// published; entry points after Close fail with ErrClosed but the last
// snapshot stays acquirable.
func TestCloseDrainsAndRejects(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.2, 6)
	m := NewManager(g, Options{PublishDirty: 1 << 30, PublishInterval: time.Hour})

	u, v := g.EdgeEndpoints(3)
	if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v", err)
	}
	if err := m.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	snap := m.Acquire()
	defer snap.Release()
	if snap.Graph().M() != g.M()-1 {
		t.Fatalf("close did not drain: m=%d, want %d", snap.Graph().M(), g.M()-1)
	}
	if snap.Graph().HasEdge(u, v) {
		t.Fatal("drained deletion not applied")
	}
}

// TestOfferContract locks in the load-shedding entry point: success on a
// free queue, false once the bounded queue is full (no blocking), false
// after Close.
func TestOfferContract(t *testing.T) {
	g := gen.ErdosRenyi(30, 0.2, 12)
	// A parked writer: huge thresholds and a tiny queue, so Offer outcomes
	// are deterministic once the queue fills.
	m := NewManager(g, Options{
		QueueSize:       2,
		PublishDirty:    1 << 30,
		PublishInterval: time.Hour,
	})
	u, v := g.EdgeEndpoints(0)
	// Saturate the 2-slot queue faster than the writer drains it; at least
	// one Offer must shed load (report false) instead of blocking.
	sawFull := false
	for i := 0; i < 10000 && !sawFull; i++ {
		if !m.Offer(Update{Op: OpRemove, U: u, V: v}) {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("Offer never reported a full queue despite a 2-slot buffer and 10k sends")
	}
	m.Close()
	if m.Offer(Update{Op: OpAdd, U: u, V: v}) {
		t.Fatal("Offer accepted an update after Close")
	}
	if err := m.Apply(Update{Op: OpAdd, U: u, V: v}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v", err)
	}
}

// TestManagerFromIndex round-trips through the serializer and resumes
// serving without a fresh decomposition.
func TestManagerFromIndex(t *testing.T) {
	g := gen.ErdosRenyi(60, 0.15, 8)
	ix := trussindex.Build(g)
	m := NewManagerFromIndex(ix, fastOpts())
	defer m.Close()

	snap := m.Acquire()
	if snap.Index() != ix {
		t.Fatal("epoch 1 should serve the provided index")
	}
	snap.Release()

	u, v := g.EdgeEndpoints(5)
	if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	snap = m.Acquire()
	defer snap.Release()
	checkSnapshotAgainstScratch(t, snap, [][]int{{0, 1}, {10, 20}})
}
