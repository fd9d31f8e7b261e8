package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
)

// Layout guard for processors that run on different host threads (the
// M:N engine's worker shards): every object a processor writes while it
// steps must sit on 64-byte cache lines no other processor's objects
// touch, or the two threads stall on each other's stores although they
// share no bytes. The checks read addresses only, never timings.

// cacheLine is the host cache-line size the layout assumes.
const cacheLine = 64

// region is one object's address range.
type region struct {
	name string
	addr uintptr
	size uintptr
}

// lines returns the first and last cache line the region touches.
func (r region) lines() (first, last uintptr) {
	return r.addr / cacheLine, (r.addr + r.size - 1) / cacheLine
}

// sharedLine reports a cache line two regions both touch.
func sharedLine(a, b region) (uintptr, bool) {
	af, al := a.lines()
	bf, bl := b.lines()
	if af > bl || bf > al {
		return 0, false
	}
	return max(af, bf) * cacheLine, true
}

// hotRegions lists what a translation-on processor writes per step or
// per block: the CPU itself (registers, cycles, counters, the decode
// cursor and the superblock header it embeds), the superblock header
// as sb points at it, the block slots, the decode-cache entries, and
// both page bitmaps.
func hotRegions(c *CPU) []region {
	return []region{
		{"CPU", uintptr(unsafe.Pointer(c)), unsafe.Sizeof(*c)},
		{"sbCache header", uintptr(unsafe.Pointer(c.sb)), unsafe.Sizeof(*c.sb)},
		{"superblocks", uintptr(unsafe.Pointer(&c.sb.blocks[0])), uintptr(len(c.sb.blocks)) * unsafe.Sizeof(c.sb.blocks[0])},
		{"superblock page bits", uintptr(unsafe.Pointer(&c.sb.pageBits[0])), uintptr(len(c.sb.pageBits)) * 8},
		{"decode entries", uintptr(unsafe.Pointer(&c.dc.entries[0])), uintptr(len(c.dc.entries)) * unsafe.Sizeof(c.dc.entries[0])},
		{"decode page bits", uintptr(unsafe.Pointer(&c.dc.pageBits[0])), uintptr(len(c.dc.pageBits)) * 8},
	}
}

// TestTranslationHeadersOnDisjointCacheLines: processors built back to
// back with the tier on keep their superblock headers, and everything
// else they write while stepping, on cache lines of their own. The
// 320 KB memory gives 640 pages, whose unrounded 80-byte page bitmaps
// would land in a size class that is not a multiple of 64 bytes.
func TestTranslationHeadersOnDisjointCacheLines(t *testing.T) {
	m := mem.New(320 << 10)
	cpus := make([]*CPU, 4)
	for i := range cpus {
		cpus[i] = New(m, ModifiedVAX)
		cpus[i].EnableTranslation(true)
	}
	for i := range cpus {
		for j := i + 1; j < len(cpus); j++ {
			for _, a := range hotRegions(cpus[i]) {
				for _, b := range hotRegions(cpus[j]) {
					if line, ok := sharedLine(a, b); ok {
						t.Errorf("CPU %d %s [%#x+%d] and CPU %d %s [%#x+%d] share the cache line at %#x",
							i, a.name, a.addr, a.size, j, b.name, b.addr, b.size, line)
					}
				}
			}
		}
	}
}

// TestTranslationOffKeepsNilTier: the header lives in the CPU, but a
// tier-off processor still reports the tier off, and switching it off
// again drops the block storage.
func TestTranslationOffKeepsNilTier(t *testing.T) {
	c := New(mem.New(64<<10), ModifiedVAX)
	if c.sb != nil || c.TranslationEnabled() {
		t.Fatal("a new processor has the tier on")
	}
	c.EnableTranslation(true)
	if c.sb != &c.sbc || !c.TranslationEnabled() {
		t.Fatal("EnableTranslation(true) did not point sb at the embedded header")
	}
	c.EnableTranslation(false)
	if c.sb != nil || c.sbc.blocks != nil || c.TranslationEnabled() {
		t.Fatal("EnableTranslation(false) kept the tier or its block storage")
	}
}
