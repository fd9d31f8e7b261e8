package core

import (
	"fmt"
	"testing"
	"unsafe"
)

// Layout guard for the M:N engine's share-nothing claim: worker shards
// run on different host threads, so every object a shard writes while
// its worker steps must sit on 64-byte cache lines that no other
// shard's objects touch. Sharing a line costs a coherence miss per
// store even though the shards share no bytes. The check reads
// addresses only, never timings.

// region is one object's address range.
type region struct {
	name string
	addr uintptr
	size uintptr
}

func regionOf[T any](name string, p *T) region {
	return region{name, uintptr(unsafe.Pointer(p)), unsafe.Sizeof(*p)}
}

// sharedLine reports a 64-byte cache line both regions touch.
func sharedLine(a, b region) (uintptr, bool) {
	af, al := a.addr/cacheLine, (a.addr+a.size-1)/cacheLine
	bf, bl := b.addr/cacheLine, (b.addr+b.size-1)/cacheLine
	if af > bl || bf > al {
		return 0, false
	}
	return max(af, bf) * cacheLine, true
}

var layoutWorkers []*worker

// TestShardHotStateOnDisjointCacheLines builds worker shards, their
// workers and driven VMs in the order RunParallel and CreateVM do, and
// checks that no two shards' hot-written objects — the interval clock,
// the processor, its MMU, the shard monitor, the worker and the VM it
// drives — share a cache line.
func TestShardHotStateOnDisjointCacheLines(t *testing.T) {
	const n = 4
	k := New(4<<20, Config{Translation: true})
	vms := make([]*VM, n)
	for i := range vms {
		vm, err := k.CreateVM(VMConfig{Name: fmt.Sprintf("vm%d", i), MemBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		vms[i] = vm
	}
	shards := make([]*VMM, n)
	for i := range shards {
		shards[i] = k.newWorkerShard()
	}
	// Workers go through a package-level slice so they reach the heap,
	// as RunParallel's do when their goroutines start.
	layoutWorkers = layoutWorkers[:0]
	for i, s := range shards {
		layoutWorkers = append(layoutWorkers, newWorker(i, s))
	}
	hot := make([][]region, n)
	for i, s := range shards {
		hot[i] = []region{
			regionOf("Clock", s.Clock),
			regionOf("CPU", s.CPU),
			regionOf("MMU", s.CPU.MMU),
			regionOf("shard VMM", s),
			regionOf("worker", layoutWorkers[i]),
			regionOf("VM", vms[i]),
		}
	}
	for i := range hot {
		for j := i + 1; j < n; j++ {
			for _, a := range hot[i] {
				for _, b := range hot[j] {
					if line, ok := sharedLine(a, b); ok {
						t.Errorf("shard %d %s [%#x+%d] and shard %d %s [%#x+%d] share the cache line at %#x",
							i, a.name, a.addr, a.size, j, b.name, b.addr, b.size, line)
					}
				}
			}
		}
	}
}
