//go:build linux

package serve

import (
	"runtime"
	"sync"
	"testing"
)

func popcount(s *cpuSet) (n int) {
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// A confined thread sees exactly one CPU, and unpin gives it back exactly
// the mask it had.
func TestPinCPURestoresAffinity(t *testing.T) {
	if cpuSlots.ids == nil {
		t.Skip("fewer Ps than CPUs, or one CPU: searches are not confined")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var before, during, after cpuSet
	if !getAffinity(&before) {
		t.Fatal("sched_getaffinity failed")
	}
	p := pinCPU()
	if p.slot == 0 {
		t.Fatal("no slot although none is held")
	}
	getAffinity(&during)
	if popcount(&during) != 1 {
		t.Errorf("confined to %d CPUs, want 1", popcount(&during))
	}
	p.unpin()
	p.unpin() // idempotent
	getAffinity(&after)
	if after != before {
		t.Errorf("affinity after unpin %x, before pinCPU %x", after, before)
	}
	for i := range cpuSlots.taken {
		if cpuSlots.taken[i].Load() {
			t.Errorf("slot %d still held", i)
		}
	}
}

// Concurrent searches get distinct CPUs; one more than there are CPUs runs
// unconfined instead of waiting.
func TestPinCPUDistinctSlots(t *testing.T) {
	n := len(cpuSlots.ids)
	if n == 0 {
		t.Skip("searches are not confined")
	}
	var wg, held sync.WaitGroup
	done := make(chan struct{})
	slots := make([]int, n)
	held.Add(n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := pinCPU()
			slots[g] = p.slot
			held.Done()
			<-done
			p.unpin()
		}(g)
	}
	held.Wait()
	seen := map[int]bool{}
	for g, s := range slots {
		if s == 0 || seen[s] {
			t.Errorf("goroutine %d: slot %d (0 = none) of %v", g, s, slots)
		}
		seen[s] = true
	}
	extra := make(chan int)
	go func() {
		p := pinCPU()
		defer p.unpin()
		extra <- p.slot
	}()
	if s := <-extra; s != 0 {
		t.Errorf("a search beyond the %d CPUs got slot %d", n, s)
	}
	close(done)
	wg.Wait()
}
