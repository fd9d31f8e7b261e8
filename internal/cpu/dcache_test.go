package cpu

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/vax"
)

// TestDecodeCacheHitsLoop checks that a tight loop replays from the
// decoded-instruction cache instead of re-parsing every iteration.
func TestDecodeCacheHitsLoop(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r0
	movl #100, r1
loop:	addl2 #3, r0
	sobgtr r1, loop
	halt
`)
	ma.run(t, 10000)
	if ma.c.R[0] != 300 {
		t.Fatalf("r0 = %d, want 300", ma.c.R[0])
	}
	s := ma.c.Stats
	if s.DecodeHits == 0 {
		t.Fatal("loop produced no decode-cache hits")
	}
	if s.DecodeHits <= s.DecodeMisses {
		t.Errorf("hits (%d) should dominate misses (%d) in a loop",
			s.DecodeHits, s.DecodeMisses)
	}
}

// TestSelfModifyingCode overwrites an instruction's literal between two
// executions: the store must invalidate the cached decode so the second
// execution sees the new bytes.
func TestSelfModifyingCode(t *testing.T) {
	ma := newMachine(t, StandardVAX, `
start:	clrl r2
patch:	movl #5, r1
	tstl r2
	bneq done
	incl r2
	movb #9, @#patch+1    ; rewrite the short literal 5 -> 9
	brb patch
done:	halt
`)
	ma.run(t, 10000)
	if ma.c.R[1] != 9 {
		t.Fatalf("r1 = %d, want 9 (stale decode executed)", ma.c.R[1])
	}
	if ma.c.Stats.DecodeInvalidations == 0 {
		t.Error("store to code produced no decode invalidations")
	}
}

// straddleMachine builds a mapped machine whose single instruction
// (MOVL #imm32, R0 followed by HALT) starts on the last byte of S page
// 2, so all its operand bytes live on S page 3. Frame frameB backs page
// 3 initially; frameB2 holds an alternative operand page with a
// different immediate.
const (
	strSPT     = 0x1000
	strFrameA  = 18 // backs S page 2 (the opcode byte)
	strFrameB  = 19 // backs S page 3 (immediate + HALT), initially
	strFrameB2 = 40 // alternative backing for S page 3
	strImm1    = 0x11111111
	strImm2    = 0x22222222
)

func newStraddleMachine(t *testing.T) (*CPU, *mem.Memory, uint32) {
	t.Helper()
	m := mem.New(256 * 1024)
	wr := func(pa uint32, b byte) {
		if err := m.StoreByte(pa, b); err != nil {
			t.Fatal(err)
		}
	}
	// Operand bytes at the start of a frame: 8F (immediate) imm32 50
	// (r0) 00 (HALT).
	operands := func(frame, imm uint32) {
		pa := frame * vax.PageSize
		wr(pa, 0x8F)
		for i := uint32(0); i < 4; i++ {
			wr(pa+1+i, byte(imm>>(8*i)))
		}
		wr(pa+5, 0x50)
		wr(pa+6, 0x00)
	}
	wr(strFrameA*vax.PageSize+vax.PageSize-1, 0xD0) // MOVL opcode
	operands(strFrameB, strImm1)
	operands(strFrameB2, strImm2)

	for i, frame := range []uint32{16, 17, strFrameA, strFrameB} {
		pte := vax.NewPTE(true, vax.ProtUW, true, frame)
		if err := m.StoreLong(strSPT+4*uint32(i), uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	c.MMU.SBR = strSPT
	c.MMU.SLR = 4
	c.MMU.Enabled = true
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	instVA := uint32(vax.SystemBase) + 2*vax.PageSize + vax.PageSize - 1
	return c, m, instVA
}

func runStraddle(t *testing.T, c *CPU, instVA, want uint32) {
	t.Helper()
	c.ClearHalt()
	c.SetPC(instVA)
	c.Run(10)
	if !c.Halted {
		t.Fatalf("did not halt; pc=%#x", c.PC())
	}
	if c.R[0] != want {
		t.Fatalf("r0 = %#x, want %#x", c.R[0], want)
	}
}

// TestStraddleRemapTBIS remaps the second page of a page-straddling
// cached instruction: after TBIS the replay must not use the stale
// operand bytes.
func TestStraddleRemapTBIS(t *testing.T) {
	c, m, instVA := newStraddleMachine(t)
	runStraddle(t, c, instVA, strImm1)
	runStraddle(t, c, instVA, strImm1) // warm: replays the straddle entry
	if c.Stats.DecodeHits == 0 {
		t.Fatal("straddling instruction never hit the cache")
	}

	pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
	if err := m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	c.MMU.TBIS(uint32(vax.SystemBase) + 3*vax.PageSize)
	runStraddle(t, c, instVA, strImm2)
	if c.Stats.DecodeInvalidations == 0 {
		t.Error("TBIS flushed no straddling decode entries")
	}
}

// TestStraddleRemapTBIA is the same scenario through a full TLB
// invalidate.
func TestStraddleRemapTBIA(t *testing.T) {
	c, m, instVA := newStraddleMachine(t)
	runStraddle(t, c, instVA, strImm1)
	pte := vax.NewPTE(true, vax.ProtUW, true, strFrameB2)
	if err := m.StoreLong(strSPT+4*3, uint32(pte)); err != nil {
		t.Fatal(err)
	}
	c.MMU.TBIA()
	runStraddle(t, c, instVA, strImm2)
}

// decodeCached reports whether a valid decode-cache entry is tagged
// with physical address pa.
func decodeCached(c *CPU, pa uint32) bool {
	e := &c.dc.entries[dcSlot(pa)]
	return e.valid && e.tag == pa
}

// TestStoreInvalidationIsByteExact caches one 8-byte instruction (at
// the longword-aligned testOrigin, MMU off) and stores next to it and
// into it: a store touching none of its bytes keeps the entry, a store
// overlapping even one byte at either end drops it. Each store writes
// back the bytes already there, so only the invalidation is observed.
func TestStoreInvalidationIsByteExact(t *testing.T) {
	const size = 8 // addl3 #imm32, r1, r0: C1 8F imm32 51 50
	cases := []struct {
		name  string
		off   int32 // store address relative to the opcode byte
		width int
		keep  bool
	}{
		{"byte just before", -1, 1, true},
		{"long just before", -4, 4, true},
		{"byte just after", size, 1, true},
		{"long just after", size, 4, true},
		{"byte on the opcode", 0, 1, false},
		{"byte on the last byte", size - 1, 1, false},
		{"unaligned long onto the opcode", -3, 4, false},
		{"unaligned long onto the last byte", size - 1, 4, false},
		{"aligned long over the tail", size - 4, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ma := newMachine(t, StandardVAX, `
start:	addl3 #0x12345678, r1, r0
	halt
`)
			ma.run(t, 10)
			pa := ma.prog.MustSymbol("start")
			if !decodeCached(ma.c, pa) {
				t.Fatal("instruction was not cached")
			}
			at := uint32(int32(pa) + tc.off)
			v, err := ma.c.LoadVirt(at, tc.width, vax.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			if err := ma.c.StoreVirt(at, tc.width, v, vax.Kernel); err != nil {
				t.Fatal(err)
			}
			if got := decodeCached(ma.c, pa); got != tc.keep {
				t.Errorf("entry cached after the store = %t, want %t", got, tc.keep)
			}
		})
	}
}

// TestStoreInvalidatesStraddlerTail stores into the operand bytes of a
// page-straddling instruction, which live on a different physical page
// than its opcode: the entry must drop. A store to the byte after its
// last operand byte must not drop it.
func TestStoreInvalidatesStraddlerTail(t *testing.T) {
	page3 := uint32(vax.SystemBase) + 3*vax.PageSize
	for _, tc := range []struct {
		off  uint32 // offset into S page 3 (frame strFrameB)
		keep bool
	}{
		{0, false}, // the immediate's specifier byte
		{5, false}, // the register operand, the entry's last byte
		{6, true},  // the HALT after it
	} {
		c, m, instVA := newStraddleMachine(t)
		runStraddle(t, c, instVA, strImm1)
		tag := uint32(strFrameA*vax.PageSize + vax.PageSize - 1)
		if !decodeCached(c, tag) || !c.dc.entries[dcSlot(tag)].straddle {
			t.Fatal("straddling instruction was not cached as a straddler")
		}
		b, err := m.LoadByte(strFrameB*vax.PageSize + tc.off)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.StoreVirt(page3+tc.off, 1, uint32(b), vax.Kernel); err != nil {
			t.Fatal(err)
		}
		if got := decodeCached(c, tag); got != tc.keep {
			t.Errorf("store at tail offset %d: entry cached = %t, want %t", tc.off, got, tc.keep)
		}
		if !tc.keep && c.dc.nStrad != 0 {
			t.Errorf("dropped straddler still listed (%d listed)", c.dc.nStrad)
		}
	}
}

// TestInvalidateDecodeRangesAreExact caches a run of 7-byte
// instructions spanning three physical pages, then checks that
// InvalidateDecode over unaligned, page-crossing and multi-page ranges
// (probed byte by byte or swept) drops exactly the entries whose bytes
// overlap the range.
func TestInvalidateDecodeRangesAreExact(t *testing.T) {
	const (
		instLen = 7 // movl #imm32, r0: D0 8F imm32 50
		count   = 140
	)
	src := "start:\n"
	for i := 0; i < count; i++ {
		src += "\tmovl #0x12345678, r0\n"
	}
	src += "\thalt\n"
	for _, r := range []struct {
		name  string
		lo, n uint32 // lo relative to the first instruction
	}{
		{"one byte mid-instruction", 10, 1},
		{"unaligned within a page", 23, 13},
		{"across a page boundary", 512 - testOrigin%512 - 5, 20},
		{"multi-page, probed", 3, 700},
		{"multi-page, swept", 5, 1015},
		{"all of memory", 0, 0},
	} {
		t.Run(r.name, func(t *testing.T) {
			ma := newMachine(t, StandardVAX, src)
			ma.run(t, 1000)
			base := ma.prog.MustSymbol("start")
			lo, n := base+r.lo, r.n
			if n == 0 {
				lo, n = 0, ma.m.Size()
			}
			var before []bool
			cached := 0
			for i := uint32(0); i < count; i++ {
				ok := decodeCached(ma.c, base+i*instLen)
				before = append(before, ok)
				if ok {
					cached++
				}
			}
			if cached < count*9/10 {
				t.Fatalf("only %d of %d instructions cached", cached, count)
			}
			ma.c.InvalidateDecode(lo, n)
			for i := uint32(0); i < count; i++ {
				pa := base + i*instLen
				overlaps := pa < lo+n && lo < pa+instLen
				want := before[i] && !overlaps
				if got := decodeCached(ma.c, pa); got != want {
					t.Errorf("instruction at %#x (range [%#x,%#x)): cached = %t, want %t",
						pa, lo, lo+n, got, want)
				}
			}
		})
	}
}

// TestRecordingStoreAbortsOnlyOnOverlap checks the self-store rule
// while an instruction is being recorded: a store that misses its bytes
// leaves it cacheable, even on its own page (MiniOS's incl of a kernel
// data cell next to its code), while a store into any byte it has
// recorded keeps it out of the cache.
func TestRecordingStoreAbortsOnlyOnOverlap(t *testing.T) {
	// movb #0, @#start+off is 7 bytes: 90 00 9F addr32.
	for _, tc := range []struct {
		off    int32 // stored byte relative to the instruction
		cached bool
	}{
		{-1, true},
		{0, false},
		{6, false},
		{7, true},
		{200, true}, // same page, well clear of the instruction
	} {
		ma := newMachine(t, StandardVAX, fmt.Sprintf(`
start:	movb #0, @#start%+d
	halt
`, tc.off))
		start := ma.prog.MustSymbol("start")
		if (start+200)/vax.PageSize != start/vax.PageSize {
			t.Fatal("test layout: the far store leaves the code page")
		}
		ma.c.Step()
		if got := decodeCached(ma.c, start); got != tc.cached {
			t.Errorf("store at start%+d: instruction cached = %t, want %t", tc.off, got, tc.cached)
		}
	}
}
