package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trussindex"
)

// TestConcurrentQueriersOneUpdater is the snapshot-isolation stress: several
// goroutines run Basic/LCTC/TrussOnly against whatever epoch they acquire while
// one updater streams deletions and re-insertions and a poller hammers
// Stats. Run under -race (CI does); the assertions here are liveness and
// sanity — queries must keep succeeding against their acquired epoch and
// epochs must advance while queries are in flight.
func TestConcurrentQueriersOneUpdater(t *testing.T) {
	g, truth := gen.CommunityGraph(gen.CommunityParams{
		N: 400, NumCommunities: 16, MinSize: 10, MaxSize: 32,
		Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 400, Seed: 0xACE5,
	})
	m := NewManager(g, Options{
		QueueSize:       512,
		PublishDirty:    32,
		PublishInterval: 5 * time.Millisecond,
	})
	defer m.Close()

	rng := gen.NewRNG(0xD1CE)
	queries := make([][]int, 0, 16)
	for _, q := range gen.QueriesFromGroundTruth(rng, truth, 16, 2, 3) {
		queries = append(queries, q.Q)
	}
	if len(queries) == 0 {
		t.Fatal("no ground-truth queries")
	}

	const dur = 400 * time.Millisecond
	var stop atomic.Bool
	var wg sync.WaitGroup
	var queryCount, failCount atomic.Int64

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				snap := m.Acquire()
				s := core.NewSearcher(snap.Index())
				q := queries[i%len(queries)]
				var err error
				switch i % 3 {
				case 0:
					_, err = search(s, core.AlgoBasic, q)
				case 1:
					_, err = search(s, core.AlgoLCTC, q)
				default:
					_, err = search(s, core.AlgoTrussOnly, q)
				}
				if err != nil && !errors.Is(err, trussindex.ErrNoCommunity) {
					t.Errorf("query failed: %v", err)
				}
				if err != nil {
					failCount.Add(1)
				}
				queryCount.Add(1)
				snap.Release()
			}
		}(w)
	}

	// One updater: delete random live edges, re-add them a little later.
	wg.Add(1)
	go func() {
		defer wg.Done()
		urng := gen.NewRNG(0xBEEF)
		keys := g.EdgeKeys()
		var parked []int
		for !stop.Load() {
			if len(parked) > 64 {
				k := keys[parked[0]]
				parked = parked[1:]
				u, v := k.Endpoints()
				if err := m.Apply(Update{Op: OpAdd, U: u, V: v}); err != nil {
					return
				}
				continue
			}
			i := urng.Intn(len(keys))
			u, v := keys[i].Endpoints()
			if err := m.Apply(Update{Op: OpRemove, U: u, V: v}); err != nil {
				return
			}
			parked = append(parked, i)
		}
	}()

	// Stats poller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = m.Stats()
			time.Sleep(time.Millisecond)
		}
	}()

	startEpoch := m.Stats().Epoch
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	st := m.Stats()
	if st.Epoch == startEpoch {
		t.Fatal("no epoch advanced under sustained updates")
	}
	if queryCount.Load() == 0 {
		t.Fatal("no queries completed")
	}
	if st.LiveSnapshots != 1 {
		t.Fatalf("snapshot leak: %d live after all readers released", st.LiveSnapshots)
	}
	t.Logf("epochs %d -> %d, %d queries (%d no-community), %d publishes (%d full)",
		startEpoch, st.Epoch, queryCount.Load(), failCount.Load(), st.Publishes, st.FullRebuilds)
}
