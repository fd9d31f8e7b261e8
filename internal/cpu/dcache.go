package cpu

import (
	"repro/internal/mmu"
	"repro/internal/vax"
)

// The decoded-instruction cache. Re-executing straight-line code and
// loop bodies used to re-parse every operand specifier byte by byte
// through the MMU; the cache keys fully decoded instructions (opcode
// row + specifier templates + length) by the physical address of the
// opcode byte, so re-execution translates the PC once and replays the
// templates.
//
// Keying by physical address makes invalidation exact: every entry
// records how many instruction-stream bytes it was decoded from, and a
// write drops exactly the entries whose bytes it overlaps, no matter
// which virtual mapping performed it (guest stores, VMM stores into VM
// memory, DMA). A write next to cached code — MiniOS keeps its kernel
// data cells on its first code page — leaves that code cached.
//
// Coherence rules (see DESIGN.md):
//
//   - Guest stores through the CPU's own path invalidate inline
//     (physStoreByte/physStoreLong, with the store's width). A store to
//     a page with no cached decodes costs one bit test in a page
//     bitmap; otherwise it probes only the slots whose tag can reach
//     the stored bytes — tags from maxSize-1 bytes before them on the
//     same page — plus the short list of live straddling entries, whose
//     tails live on another page.
//   - Writers that bypass the CPU (VMM writes into VM physical memory,
//     device DMA) call InvalidateDecode with the written range. It
//     costs at most one pass over the slots whatever the range's size:
//     a range too long to probe byte by byte takes a single sweep.
//     Snapshot restore calls FlushDecodeCache.
//   - An instruction being recorded is not installed when it stores
//     into bytes it has already recorded; a store elsewhere, even on
//     its own page, leaves it cacheable. Once its recorded bytes cross
//     onto a second page, any store aborts it.
//   - Entries whose bytes span two pages additionally depend on the
//     translation of the second page, so TBIA/TBIS flush them (via the
//     MMU callbacks) and every replay revalidates the second page's
//     translation.
//   - A plain entry needs no TLB-coherence work: its tag is verified
//     against a fresh translation of the PC on every execution, so a
//     mapping change redirects or misses exactly like the TLB does.
//
// Beyond the one bit per page, the cache holds no state that grows with
// memory (DESIGN.md records what a per-page line map cost fleet-api).

const (
	dcSlots    = 1024 // direct-mapped entries, indexed by dcSlot
	dcItemsMax = 6    // recorded decode items per instruction
	// dcStraddleMax bounds the live page-straddling entries. Code
	// crosses a page boundary at most once per code page, so a handful
	// covers a working set; installing one more evicts a listed one.
	dcStraddleMax = 16
)

// dcSlot maps an opcode's physical address to its slot. The frame bits
// fold into the index so that equal offsets in different frames — VMs
// sit at regular strides, so their kernels' instructions share offsets
// — do not all compete for one slot.
func dcSlot(pa uint32) uint32 {
	return (pa ^ pa>>10 ^ pa>>20) & (dcSlots - 1)
}

// Decode item kinds: one item per operand specifier or raw
// instruction-stream fetch (branch displacements), in stream order.
const (
	diSpec uint8 = iota // an operand specifier template
	diByte              // a raw byte fetched via fetchStream8
	diWord              // a raw word fetched via fetchStream16
)

type ditem struct {
	kind   uint8
	endOff uint8  // PC offset from instruction start after this item
	val    uint32 // raw value (diByte/diWord)
	spec   dspec  // template (diSpec)
}

// dcEntry is one cached decoded instruction.
type dcEntry struct {
	tag      uint32 // physical address of the opcode byte
	tag2     uint32 // physical address of the second page's first byte (straddle)
	ie       *instrEntry
	valid    bool
	straddle bool   // recorded bytes span a page boundary
	opLen    uint8  // opcode length (2 for 0xFD-prefixed)
	n        uint8  // recorded items
	size     uint8  // instruction-stream bytes recorded, opcode included
	heat     uint16 // replays seen by the superblock tier (sblock.go)
	items    [dcItemsMax]ditem
}

// overlaps reports whether any byte the entry was decoded from lies in
// the physical range [lo, hi).
func (e *dcEntry) overlaps(lo, hi uint32) bool {
	end := e.tag + uint32(e.size)
	if !e.straddle {
		return e.tag < hi && lo < end
	}
	head := vax.PageBase(e.tag) + vax.PageSize
	return e.tag < hi && lo < head ||
		e.tag2 < hi && lo < e.tag2+(end-head)
}

type dcache struct {
	entries  []dcEntry
	pageBits []uint64              // physical pages that may hold cached decode bytes
	pageLim  uint32                // number of physical pages covered by pageBits
	maxSize  uint32                // longest entry installed since the last flush
	strad    [dcStraddleMax]uint16 // slots of the live straddling entries
	nStrad   int
}

// unlistStraddle removes slot s from the straddle list (moving the last
// listed slot into its place).
func (d *dcache) unlistStraddle(s uint32) {
	for i := 0; i < d.nStrad; i++ {
		if uint32(d.strad[i]) == s {
			d.nStrad--
			d.strad[i] = d.strad[d.nStrad]
			return
		}
	}
}

func (d *dcache) markPage(page uint32) {
	if page < d.pageLim {
		d.pageBits[page>>6] |= 1 << (page & 63)
	}
}

func (d *dcache) pageMarked(page uint32) bool {
	return page < d.pageLim && d.pageBits[page>>6]&(1<<(page&63)) != 0
}

func (d *dcache) clearPage(page uint32) {
	if page < d.pageLim {
		d.pageBits[page>>6] &^= 1 << (page & 63)
	}
}

// Cursor modes.
const (
	curOff    uint8 = iota
	curRecord       // cold decode: capture items for a new entry
	curReplay       // cache hit: feed recorded items to the handlers
)

// cursor mediates between the instruction handlers and the cache for
// the instruction currently executing.
type cursor struct {
	mode     uint8
	n        uint8 // record: items captured; replay: items consumed
	lastOff  uint8 // record: furthest PC offset any item reached
	overflow bool  // record: more items than an entry can hold
	aborted  bool  // record: the instruction stored into its recorded bytes
	recPA    uint32
	ent      *dcEntry // replay source
	items    [dcItemsMax]ditem
}

// record captures one decode item while recording (no-op otherwise).
func (cu *cursor) record(it ditem) {
	if cu.mode != curRecord {
		return
	}
	if cu.n >= dcItemsMax {
		cu.overflow = true
		return
	}
	cu.items[cu.n] = it
	cu.n++
	if it.endOff > cu.lastOff {
		cu.lastOff = it.endOff
	}
}

// nextSpec yields the next recorded specifier template on replay. A
// kind mismatch or exhaustion returns false and the caller parses the
// live stream instead (always correct: PC tracks every replayed item).
func (cu *cursor) nextSpec() (dspec, bool) {
	e := cu.ent
	if cu.n >= e.n || e.items[cu.n].kind != diSpec {
		return dspec{}, false
	}
	t := e.items[cu.n].spec
	cu.n++
	return t, true
}

// nextRaw yields the next recorded raw fetch of the given kind.
func (cu *cursor) nextRaw(kind uint8) (uint32, uint8, bool) {
	e := cu.ent
	if cu.n >= e.n || e.items[cu.n].kind != kind {
		return 0, 0, false
	}
	it := &e.items[cu.n]
	cu.n++
	return it.val, it.endOff, true
}

// fetchStream8 reads the next instruction-stream byte through the
// decode cursor: branch displacements and specifier peeks recorded once
// and replayed on cache hits.
func (c *CPU) fetchStream8() (byte, error) {
	if c.cur.mode == curReplay {
		if v, off, ok := c.cur.nextRaw(diByte); ok {
			c.R[RegPC] = c.instStartPC + uint32(off)
			return byte(v), nil
		}
	}
	b, err := c.fetchByte()
	if err != nil {
		return 0, err
	}
	c.cur.record(ditem{kind: diByte, endOff: uint8(c.R[RegPC] - c.instStartPC), val: uint32(b)})
	return b, nil
}

// fetchStream16 is fetchStream8 for word displacements.
func (c *CPU) fetchStream16() (uint16, error) {
	if c.cur.mode == curReplay {
		if v, off, ok := c.cur.nextRaw(diWord); ok {
			c.R[RegPC] = c.instStartPC + uint32(off)
			return uint16(v), nil
		}
	}
	w, err := c.fetchWord()
	if err != nil {
		return 0, err
	}
	c.cur.record(ditem{kind: diWord, endOff: uint8(c.R[RegPC] - c.instStartPC), val: uint32(w)})
	return w, nil
}

func (c *CPU) initDecodeCache() {
	pages := c.Mem.Pages()
	c.dc.entries = make([]dcEntry, dcSlots)
	c.dc.pageBits = pageBitmap(pages)
	c.dc.pageLim = pages
}

// pageBitmap returns a bitmap with one bit per physical page, rounded
// up to whole 64-byte cache lines. Go starts every allocation whose
// size is a multiple of 64 bytes on a line boundary, so one processor's
// bitmap updates never share a line with another processor's.
func pageBitmap(pages uint32) []uint64 {
	return make([]uint64, (pages+511)/512*8)
}

// execOne fetches, decodes and executes a single instruction, replaying
// from the decoded-instruction cache when the physical PC hits a valid
// entry.
func (c *CPU) execOne() error {
	pa, paOK := c.MMU.TranslateFast(c.R[RegPC], mmu.Read, c.psl.Cur())
	return c.execOneAt(pa, paOK)
}

// execOneAt is execOne with the PC's translation already done (the
// superblock tier translates once for its block probe and passes the
// result through here on a miss).
func (c *CPU) execOneAt(pa uint32, paOK bool) error {
	if paOK {
		e := &c.dc.entries[dcSlot(pa)]
		if e.valid && e.tag == pa &&
			(!e.straddle || c.straddleValid(e)) {
			return c.execReplay(e)
		}
	}
	return c.execCold(pa, paOK)
}

// straddleValid re-translates the second page of a page-straddling
// entry and checks it still maps to the recorded physical page.
func (c *CPU) straddleValid(e *dcEntry) bool {
	va2 := vax.PageBase(c.R[RegPC]) + vax.PageSize
	pa2, ok := c.MMU.TranslateFast(va2, mmu.Read, c.psl.Cur())
	return ok && pa2 == e.tag2
}

// execReplay runs a cached decoded instruction: PC skips the opcode
// byte(s), the precharged cost matches the cold path, and the handler
// consumes the recorded items through the cursor.
func (c *CPU) execReplay(e *dcEntry) error {
	c.Stats.DecodeHits++
	cu := &c.cur
	cu.mode = curReplay
	cu.n = 0
	cu.ent = e
	c.R[RegPC] += uint32(e.opLen)
	c.Cycles += uint64(e.ie.cost)
	err := e.ie.fn(c, e.ie)
	cu.mode = curOff
	return err
}

// execCold takes the full fetch-and-parse path and, when the
// instruction is cacheable, records a cache entry as a side effect.
func (c *CPU) execCold(pa uint32, paOK bool) error {
	c.Stats.DecodeMisses++
	cu := &c.cur
	cu.mode = curOff
	va := c.R[RegPC]

	b, err := c.fetchByte()
	if err != nil {
		return err
	}
	op := uint16(b)
	opLen := uint8(1)
	if b == vax.ExtPrefix {
		b2, err := c.fetchByte()
		if err != nil {
			return err
		}
		op = 0xFD00 | uint16(b2)
		opLen = 2
	}
	ie := c.lookup(op)
	if ie == nil {
		c.Cycles += CostBase
		return c.reservedInstruction()
	}

	if !paOK {
		// The PC's page was not in the TLB when execOne looked; the
		// opcode fetch above walked it in, so one retry usually makes
		// the instruction cacheable on its first execution.
		pa, paOK = c.MMU.TranslateFast(va, mmu.Read, c.psl.Cur())
	}
	if paOK && c.cacheablePA(pa) {
		cu.mode = curRecord
		cu.n = 0
		cu.lastOff = opLen
		cu.overflow = false
		cu.aborted = false
		cu.recPA = pa
	}

	c.Cycles += uint64(ie.cost)
	err = ie.fn(c, ie)
	if cu.mode == curRecord {
		cu.mode = curOff
		c.finishRecord(pa, va, opLen, ie)
	}
	return err
}

// cacheablePA reports whether an instruction whose opcode lives at pa
// may be cached: inside physical memory (the bitmap's domain) and not
// in a device window, whose reads have side effects.
func (c *CPU) cacheablePA(pa uint32) bool {
	if pa/vax.PageSize >= c.dc.pageLim {
		return false
	}
	for _, h := range c.mmio {
		base, size := h.Window()
		if pa >= vax.PageBase(base) && pa < base+size {
			return false
		}
	}
	return true
}

// finishRecord installs the just-recorded decode into its slot. Entries
// are installed even when the instruction faulted mid-decode: replay
// falls back to the live stream once the recorded items run out, so a
// partial entry is merely less effective, never wrong.
func (c *CPU) finishRecord(pa, va uint32, opLen uint8, ie *instrEntry) {
	cu := &c.cur
	if cu.overflow || cu.aborted {
		return
	}
	d := &c.dc
	straddle := (va&vax.PageMask)+uint32(cu.lastOff) > vax.PageSize
	var tag2 uint32
	if straddle {
		va2 := vax.PageBase(va) + vax.PageSize
		pa2, ok := c.MMU.TranslateFast(va2, mmu.Read, c.psl.Cur())
		if !ok || pa2/vax.PageSize >= d.pageLim {
			return
		}
		tag2 = pa2
		d.markPage(pa2 / vax.PageSize)
	}
	s := dcSlot(pa)
	e := &d.entries[s]
	if e.valid && e.straddle {
		d.unlistStraddle(s)
	}
	if straddle {
		if d.nStrad == dcStraddleMax {
			victim := uint32(d.strad[0])
			d.entries[victim].valid = false
			d.unlistStraddle(victim)
		}
		d.strad[d.nStrad] = uint16(s)
		d.nStrad++
	}
	e.tag = pa
	e.tag2 = tag2
	e.ie = ie
	e.straddle = straddle
	e.opLen = opLen
	e.n = cu.n
	e.size = cu.lastOff
	e.heat = 0
	e.items = cu.items
	e.valid = true
	if uint32(cu.lastOff) > d.maxSize {
		d.maxSize = uint32(cu.lastOff)
	}
	d.markPage(pa / vax.PageSize)
}

// dropDecode invalidates the entry in slot s.
func (c *CPU) dropDecode(s uint32) {
	e := &c.dc.entries[s]
	e.valid = false
	if e.straddle {
		c.dc.unlistStraddle(s)
	}
	c.Stats.DecodeInvalidations++
}

// abortRecordOverlap keeps the instruction being recorded from being
// installed when a write to [lo, hi) overlaps the bytes it has recorded
// so far: those items may already be stale. Bytes it records after the
// write are read from the written memory, so they need no check.
func (c *CPU) abortRecordOverlap(lo, hi uint32) {
	cu := &c.cur
	if cu.mode != curRecord {
		return
	}
	// Once the recorded bytes cross onto the next page, whose physical
	// address is not known here, any write aborts.
	if (c.instStartPC&vax.PageMask)+uint32(cu.lastOff) > vax.PageSize ||
		lo < cu.recPA+uint32(cu.lastOff) && cu.recPA < hi {
		cu.aborted = true
	}
}

// invalidateDecodePA drops the cached decodes overlapping the n bytes
// stored at pa, which lie in one page (callers split page-straddling
// stores). Called on each store; the page bitmap keeps the
// no-cached-code case at one bit test.
func (c *CPU) invalidateDecodePA(pa, n uint32) {
	c.abortRecordOverlap(pa, pa+n)
	page := pa / vax.PageSize
	if c.sb != nil {
		c.sbInvalidatePage(page)
	}
	if c.dc.pageMarked(page) {
		c.invalidateDecodeBytes(pa, pa+n)
	}
}

// invalidateDecodeBytes drops the entries overlapping [lo, hi), a range
// within one physical page. An entry's head lies on its tag's page, so
// only tags from maxSize-1 bytes before lo (but on lo's page) up to hi
// can reach the range; a straddler's tail lies on another page and is
// found through the straddle list.
func (c *CPU) invalidateDecodeBytes(lo, hi uint32) {
	d := &c.dc
	t := vax.PageBase(lo)
	if back := d.maxSize - 1; d.maxSize > 0 && lo-t > back {
		t = lo - back
	}
	for ; t < hi; t++ {
		s := dcSlot(t)
		if e := &d.entries[s]; e.valid && e.tag == t && e.overlaps(lo, hi) {
			c.dropDecode(s)
		}
	}
	for i := 0; i < d.nStrad; {
		s := uint32(d.strad[i])
		if d.entries[s].overlaps(lo, hi) {
			c.dropDecode(s) // moves the last listed slot into i
			continue
		}
		i++
	}
}

// InvalidateDecode drops cached decoded instructions overlapping the
// physical range [pa, pa+n). It is the hook for writers that bypass the
// CPU's own store path: the VMM storing into a VM's physical memory and
// device DMA. It costs at most one pass over the slots: a range whose
// byte-by-byte probe would cost more (a whole VM's memory, say) is
// swept once instead.
func (c *CPU) InvalidateDecode(pa, n uint32) {
	if n == 0 {
		return
	}
	d := &c.dc
	end := pa + n
	c.abortRecordOverlap(pa, end)
	first, last := pa/vax.PageSize, (end-1)/vax.PageSize
	marked := uint32(0)
	for p := first; p <= last; p++ {
		if c.sb != nil {
			c.sbInvalidatePage(p)
		}
		if d.pageMarked(p) {
			marked++
		}
	}
	if marked == 0 {
		return
	}
	if n+marked*(d.maxSize+uint32(d.nStrad)) > dcSlots {
		for s := range d.entries {
			if e := &d.entries[s]; e.valid && e.overlaps(pa, end) {
				c.dropDecode(uint32(s))
			}
		}
	} else {
		for p := first; p <= last; p++ {
			if d.pageMarked(p) {
				base := p * vax.PageSize
				c.invalidateDecodeBytes(max(pa, base), min(end, base+vax.PageSize))
			}
		}
	}
	// Pages the range covers whole now hold no cached bytes.
	for p := first; p <= last; p++ {
		if p*vax.PageSize >= pa && (p+1)*vax.PageSize <= end {
			d.clearPage(p)
		}
	}
}

// FlushDecodeCache drops every cached decode (snapshot restore, where
// all of memory may have changed underneath the mappings).
func (c *CPU) FlushDecodeCache() {
	for i := range c.dc.entries {
		if c.dc.entries[i].valid {
			c.dc.entries[i].valid = false
			c.Stats.DecodeInvalidations++
		}
	}
	for i := range c.dc.pageBits {
		c.dc.pageBits[i] = 0
	}
	c.dc.maxSize = 0
	c.dc.nStrad = 0
	c.sbFlush()
}

// flushStraddleDecodes drops the entries that depend on two
// translations. Wired to the MMU's TBIA/TBIS callbacks: a single-page
// entry revalidates its translation on every execution, but a
// straddling entry's second page was translated at record time, so a
// TLB invalidate must drop it.
func (c *CPU) flushStraddleDecodes() {
	if c.sb != nil {
		// Superblocks revalidate their code-page translations at entry,
		// so a TLB invalidate between blocks costs nothing; one issued
		// mid-block must force an exit before the next step, because the
		// entry check has already passed.
		c.sb.tlbFlush = true
	}
	d := &c.dc
	for i := 0; i < d.nStrad; i++ {
		d.entries[d.strad[i]].valid = false
		c.Stats.DecodeInvalidations++
	}
	d.nStrad = 0
}
