//go:build linux

package serve

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Every search in flight runs on a CPU of its own.
//
// A search is tens of milliseconds of pure computation on the thread that
// happened to read the request. The kernel wakes that thread next to the
// client that wrote the request, so after a stretch of sparse traffic (one
// request at a time, the other CPUs asleep) the threads of two concurrent
// searches routinely start on the same CPU, and on the two-core VMs this
// server is measured on the load balancer needs up to a second to move one of
// them to the idle core: throughput under two connections then depends on
// what the traffic looked like before, not on the work. (read_dense closed
// phase, ten runs: 1-18 % of the CPU time idle with a runnable search waiting
// and query_qps 101-132; 2-3 % and 121-135 with the searches spread. The
// parent's slower searches overlap all through the open phase and so stay
// spread: 0.2-0.6 %.)
//
// So the thread of an admitted search is locked to its goroutine and confined
// to one CPU no other search holds — the one it is already on when that is
// free — and gets its old affinity back when the search returns. Nothing else
// is confined: cache hits, the writer loop, the collector and the HTTP
// plumbing before and after the search run wherever the kernel puts them.
//
// This applies only when the process has a P for every CPU it may use (a
// box, VM or cpuset sized for the server); with fewer Ps than CPUs the kernel
// has spare cores to choose from and is left alone. A search that finds every
// CPU taken, or any failing system call, runs unconfined as before.

// cpuSet is a kernel CPU mask of 1024 CPUs.
type cpuSet [16]uint64

var cpuSlots struct {
	ids   []int         // the CPUs of the process's affinity mask; nil: searches are not confined
	taken []atomic.Bool // taken[i]: a search is confined to ids[i]
}

// sysGetcpu is getcpu(2), which package syscall does not name on every
// architecture; 0 where unknown (the slot scan then starts at the first CPU).
var sysGetcpu = map[string]uintptr{"amd64": 309, "arm64": 168}[runtime.GOARCH]

func init() {
	var all cpuSet
	if !getAffinity(&all) {
		return
	}
	var ids []int
	for c := 0; c < len(all)*64; c++ {
		if all[c/64]&(1<<(c%64)) != 0 {
			ids = append(ids, c)
		}
	}
	if len(ids) < 2 || runtime.GOMAXPROCS(0) < len(ids) {
		return
	}
	cpuSlots.ids = ids
	cpuSlots.taken = make([]atomic.Bool, len(ids))
}

func getAffinity(s *cpuSet) bool {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	return e == 0
}

func setAffinity(s *cpuSet) bool {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	return e == 0
}

// pinned is what unpin needs to undo a pinCPU: the slot held and the
// affinity the thread had. The zero value means the search is not confined.
type pinned struct {
	slot int // index into cpuSlots + 1
	old  cpuSet
}

// pinCPU locks the calling goroutine to its thread and confines the thread
// to a CPU that no other search holds. The caller must call unpin on the
// same goroutine. (The runtime never clones a new thread from a locked one,
// so the narrowed mask is not inherited.)
func pinCPU() (p pinned) {
	if cpuSlots.ids == nil {
		return p
	}
	runtime.LockOSThread()
	if getAffinity(&p.old) {
		if i := claimSlot(); i >= 0 {
			var one cpuSet
			c := cpuSlots.ids[i]
			one[c/64] = 1 << (c % 64)
			if setAffinity(&one) {
				p.slot = i + 1
				return p
			}
			cpuSlots.taken[i].Store(false)
		}
	}
	runtime.UnlockOSThread()
	return p
}

func (p *pinned) unpin() {
	if p.slot == 0 {
		return
	}
	setAffinity(&p.old)
	cpuSlots.taken[p.slot-1].Store(false)
	runtime.UnlockOSThread()
	p.slot = 0
}

// claimSlot takes a free slot, the current CPU's if it has one, and returns
// its index, or -1 when every slot is held.
func claimSlot() int {
	first := 0
	if sysGetcpu != 0 {
		var cpu uint32
		if _, _, e := syscall.RawSyscall(sysGetcpu, uintptr(unsafe.Pointer(&cpu)), 0, 0); e == 0 {
			for i, c := range cpuSlots.ids {
				if c == int(cpu) {
					first = i
					break
				}
			}
		}
	}
	n := len(cpuSlots.ids)
	for k := 0; k < n; k++ {
		i := (first + k) % n
		if cpuSlots.taken[i].CompareAndSwap(false, true) {
			return i
		}
	}
	return -1
}
