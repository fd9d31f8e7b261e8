package core

import (
	"strings"
	"testing"

	"repro/internal/vax"
)

// White-box tests for the frame allocator: allocation is exact on the
// root and on worker shards alike, freed frames are reused at any run
// size (split and merge), FreePages is an exact count, CarvedPages is a
// monotone high-water mark, and a bookkeeping bug panics.

// TestShardAllocExactAndOutOfMemory: a shard takes exactly what it
// asks for from the shared allocator, and a request larger than the
// free store is a precise out-of-memory error on shard and root.
func TestShardAllocExactAndOutOfMemory(t *testing.T) {
	k := New(64*1024, Config{}) // 128 pages total, page 0 reserved
	s := k.newWorkerShard()
	if _, err := k.allocPages(100); err != nil {
		t.Fatal(err)
	}
	before := k.CarvedPages()
	if _, err := s.allocPages(4); err != nil {
		t.Fatal(err)
	}
	if got := k.CarvedPages() - before; got != 4 {
		t.Errorf("shard carved %d pages, want exactly 4", got)
	}
	if got := k.FreePages(); got != 128-1-100-4 {
		t.Errorf("FreePages = %d, want %d", got, 128-1-100-4)
	}
	if _, err := s.allocPages(1000); err == nil {
		t.Error("over-free-store allocation did not report out of memory")
	}
	if _, err := k.allocPages(1000); err == nil {
		t.Error("root over-free-store allocation did not report out of memory")
	}
	if _, err := k.allocPages(23); err != nil {
		t.Fatalf("allocating the last 23 pages: %v", err)
	}
	if _, err := s.allocRun(1); err == nil || !strings.Contains(err.Error(), "0 free") {
		t.Errorf("allocation from a full memory = %v, want out of memory with 0 free", err)
	}
}

// TestRootAllocStaysExact: the root takes exactly what is asked, a
// monitor that never frees places runs back to back like a bump
// allocator, and a freed run is what the next allocRun of that size
// finds, counted as a pool hit.
func TestRootAllocStaysExact(t *testing.T) {
	k := New(16<<20, Config{})
	before := k.CarvedPages()
	p, err := k.allocPages(3)
	if err != nil {
		t.Fatal(err)
	}
	if p != before || k.CarvedPages() != before+3 {
		t.Errorf("root got run %d, high-water %d; want run %d, high-water %d",
			p, k.CarvedPages(), before, before+3)
	}
	q, err := k.allocRun(5)
	if err != nil {
		t.Fatal(err)
	}
	if q != p+3 {
		t.Errorf("second run at %d, want the next frame %d", q, p+3)
	}
	if k.Stats.ShadowPoolMisses != 1 || k.Stats.ShadowPoolHits != 0 {
		t.Errorf("fresh run counted hits/misses %d/%d, want 0/1",
			k.Stats.ShadowPoolHits, k.Stats.ShadowPoolMisses)
	}
	k.freeRun(p, 3)
	got, err := k.allocRun(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("allocRun returned %d, want freed run %d", got, p)
	}
	if k.Stats.ShadowPoolHits != 1 {
		t.Error("reused run not counted as a pool hit")
	}
}

// TestFreedRunSplitsIntoSmallerRuns: a freed 4-page run serves four
// 1-page runs (the COW-break size) without carving fresh frames, and
// FreePages returns to its value before the free. An allocator that
// pools runs by exact size carves four new pages here.
func TestFreedRunSplitsIntoSmallerRuns(t *testing.T) {
	k := New(16<<20, Config{})
	p, err := k.allocRun(4)
	if err != nil {
		t.Fatal(err)
	}
	free, carved := k.FreePages(), k.CarvedPages()
	k.freeRun(p, 4)
	if got := k.FreePages(); got != free+4 {
		t.Errorf("FreePages after freeing 4 = %d, want %d", got, free+4)
	}
	for i := uint32(0); i < 4; i++ {
		f, err := k.allocRun(1)
		if err != nil {
			t.Fatal(err)
		}
		if f != p+i {
			t.Errorf("1-page run %d at frame %d, want %d from the freed run", i, f, p+i)
		}
	}
	if got := k.CarvedPages(); got != carved {
		t.Errorf("CarvedPages grew %d -> %d: freed frames were not reused", carved, got)
	}
	if got := k.FreePages(); got != free {
		t.Errorf("FreePages = %d, want %d (the value before the free)", got, free)
	}
}

// TestFreedRunsMergeIntoLargerRun: two adjacent freed runs serve one
// run of their combined size, and a run too large for any hole is
// placed above them.
func TestFreedRunsMergeIntoLargerRun(t *testing.T) {
	k := New(16<<20, Config{})
	a, _ := k.allocRun(2)
	b, _ := k.allocRun(2)
	if _, err := k.allocRun(1); err != nil { // fence above the hole
		t.Fatal(err)
	}
	carved := k.CarvedPages()
	k.freeRun(b, 2)
	k.freeRun(a, 2)
	big, err := k.allocRun(5)
	if err != nil {
		t.Fatal(err)
	}
	if big != carved {
		t.Errorf("5-page run at %d, want %d above the 4-page hole", big, carved)
	}
	got, err := k.allocRun(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("4-page run at %d, want the merged hole at %d", got, a)
	}
}

// TestFrameAllocWordBoundaries drives the bitmap directly across
// 64-frame word boundaries and the padding past a memory size that is
// not a multiple of 64.
func TestFrameAllocWordBoundaries(t *testing.T) {
	a := newFrameAlloc(200)
	if p, _, _ := a.alloc(60); p != 0 {
		t.Fatalf("first run at %d", p)
	}
	if p, _, _ := a.alloc(10); p != 60 { // straddles words 0 and 1
		t.Fatalf("straddling run at %d, want 60", p)
	}
	if p, _, _ := a.alloc(130); p != 70 { // frames 70..199, the last one
		t.Fatalf("tail run at %d, want 70", p)
	}
	if a.free != 0 || a.high != 200 {
		t.Fatalf("free %d high %d, want 0 and 200", a.free, a.high)
	}
	if _, _, ok := a.alloc(1); ok {
		t.Fatal("allocated a padding frame past memory")
	}
	a.release(0, 2)
	a.release(62, 66) // 62..127: rest of word 0 plus all of word 1
	a.release(190, 10)
	if p, grew, _ := a.alloc(66); p != 62 || grew {
		t.Errorf("66-page run at %d (grew %v), want 62 past the 2-frame hole", p, grew)
	}
	if p, _, ok := a.alloc(11); ok { // 12 frames free, none 11 in a row
		t.Errorf("11-page run at %d from holes of 2 and 10 frames", p)
	}
	if p, _, _ := a.alloc(10); p != 190 {
		t.Errorf("10-page run at %d, want 190", p)
	}
	if p, _, _ := a.alloc(2); p != 0 {
		t.Errorf("2-page run at %d, want 0", p)
	}
	if a.free != 0 || a.high != 200 {
		t.Errorf("free %d high %d, want 0 and 200", a.free, a.high)
	}
}

// TestFreeInvalidFramePanics: freeing a frame twice, or a frame outside
// memory, is a bookkeeping bug and must panic, not hand a frame to two
// owners.
func TestFreeInvalidFramePanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", name)
			} else if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %v, want %q", name, r, want)
			}
		}()
		f()
	}
	k := New(64*1024, Config{}) // 128 pages
	p, err := k.allocRun(2)
	if err != nil {
		t.Fatal(err)
	}
	k.freeRun(p, 2)
	mustPanic("double free", "freed twice", func() { k.freeRun(p, 1) })
	mustPanic("free of a never-allocated frame", "freed twice", func() { k.freeRun(100, 1) })
	mustPanic("free past memory", "outside", func() { k.freeRun(127, 2) })
	mustPanic("free far outside memory", "outside", func() { k.freeRun(1<<31, 1) })
}

// TestHaltedVMRunsRecycledAfterParallelRun: shadow-table runs released
// by VMs halting on worker shards must be free by the merge barrier,
// so the root's next CreateVM reuses them instead of growing physical
// memory.
func TestHaltedVMRunsRecycledAfterParallelRun(t *testing.T) {
	k := New(16<<20, Config{Workers: 2, WaitTimeout: 2})
	var vms []*VM
	for i := 0; i < 4; i++ {
		vms = append(vms, addTestVM(t, k, "", parComputeSrc, nil))
	}
	k.Run(10_000_000)
	assertAllHaltedNormally(t, vms)
	if pr := k.LastParallelRun(); pr.VMs != 4 {
		t.Fatalf("parallel engine did not run: %+v", pr)
	}

	hits := k.Stats.ShadowPoolHits
	pagesBefore := k.CarvedPages()
	vm, err := k.CreateVM(VMConfig{
		Name: "recycled", MemBytes: gMemSize,
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if k.Stats.ShadowPoolHits == hits {
		t.Error("new VM recycled none of the halted VMs' shadow runs")
	}
	// The new VM's RAM is fresh, but its shadow tables should all come
	// from freed runs: the high-water mark must only have grown by the
	// RAM extent.
	ramPages := uint32(gMemSize) / vax.PageSize
	if got := k.CarvedPages() - pagesBefore; got != ramPages {
		t.Errorf("CreateVM grew the high-water mark by %d pages, want %d (RAM only)",
			got, ramPages)
	}
	_ = vm
}

// TestCreateVMFailureFreesFrames: a CreateVM that fails after taking
// frames — shadow tables that do not fit, an image that does not fit —
// gives every frame back, so FreePages stays exact.
func TestCreateVMFailureFreesFrames(t *testing.T) {
	k := New((1+128+40)*vax.PageSize, Config{}) // RAM fits, shadow space does not
	free := k.FreePages()
	if _, err := k.CreateVM(VMConfig{MemBytes: gMemSize}); err == nil {
		t.Fatal("CreateVM without room for its shadow tables succeeded")
	}
	if got := k.FreePages(); got != free {
		t.Errorf("FreePages = %d after failed CreateVM, want %d", got, free)
	}

	k = New(16<<20, Config{})
	free = k.FreePages()
	if _, err := k.CreateVM(VMConfig{MemBytes: gMemSize, Image: make([]byte, gMemSize+1)}); err == nil {
		t.Fatal("CreateVM with an oversized image succeeded")
	}
	if got := k.FreePages(); got != free {
		t.Errorf("FreePages = %d after failed CreateVM, want %d", got, free)
	}
}
