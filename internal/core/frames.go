package core

import (
	"fmt"
	"math/bits"
)

// frameAlloc is the monitor's one physical page-frame allocator: a
// used-frame bitmap searched lowest-address first-fit. Every caller —
// VM memory, shadow-table runs, COW-break pages — takes frames from it
// and gives them back to it, so a freed run is split, merged with its
// free neighbours and handed out again at any size, and the free count
// is exact: there is no side pool whose frames it cannot see.
//
// A monitor that never frees gets exactly a bump allocator's placement
// (no frame below the high-water mark is free, so every run goes at the
// mark), so the frame layout of runs that only allocate is the same as
// it always was. The allocator is not safe for concurrent use on its
// own; vmmShared.mu guards it.
type frameAlloc struct {
	used  []uint64 // bit f set = frame f in use; padding bits past pages stay set
	pages uint32   // frames under management
	free  uint32   // frames not in use
	high  uint32   // one past the highest frame ever handed out (monotone)
	low   uint32   // no free frame lies below low
}

func newFrameAlloc(pages uint32) frameAlloc {
	a := frameAlloc{used: make([]uint64, (pages+63)/64), pages: pages, free: pages}
	if r := pages % 64; r != 0 {
		a.used[len(a.used)-1] = ^uint64(0) << r
	}
	return a
}

// limit is the bitmap's length in frames, padding included.
func (a *frameAlloc) limit() uint32 { return uint32(len(a.used)) * 64 }

// nextFree returns the lowest free frame at or above f, or limit().
func (a *frameAlloc) nextFree(f uint32) uint32 {
	for w := f / 64; w < uint32(len(a.used)); w++ {
		word := ^a.used[w]
		if w == f/64 {
			word &= ^uint64(0) << (f % 64)
		}
		if word != 0 {
			return w*64 + uint32(bits.TrailingZeros64(word))
		}
	}
	return a.limit()
}

// nextUsed returns the lowest used frame at or above f, capped at stop
// (stop <= limit()).
func (a *frameAlloc) nextUsed(f, stop uint32) uint32 {
	for w := f / 64; w*64 < stop; w++ {
		word := a.used[w]
		if w == f/64 {
			word &= ^uint64(0) << (f % 64)
		}
		if word != 0 {
			return min(w*64+uint32(bits.TrailingZeros64(word)), stop)
		}
	}
	return stop
}

// alloc takes n contiguous free frames: the lowest run that fits
// wholly below the high-water mark, or else the run at the mark, or —
// only when the frames above the mark are too few — the lowest run
// anywhere. Placing a run that fits no hole at the mark, rather than
// letting it straddle the topmost hole, keeps that hole for the
// smaller runs freed frames are most often asked for (shadow tables,
// COW breaks) and means a run either reuses freed frames or is fresh.
// grew reports whether the run raised the high-water mark; ok is false
// when no run of n free frames exists.
func (a *frameAlloc) alloc(n uint32) (p uint32, grew, ok bool) {
	if n == 0 || n > a.free {
		return 0, false, false
	}
	a.low = a.nextFree(a.low)
	if p, ok = a.firstFit(n, a.high); !ok {
		if n <= a.pages-a.high {
			p, ok = a.high, true
		} else if p, ok = a.firstFit(n, a.limit()); !ok {
			return 0, false, false
		}
	}
	end := p + n
	for f := p; f < end; f++ {
		a.used[f/64] |= 1 << (f % 64)
	}
	a.free -= n
	if p == a.low {
		a.low = end
	}
	grew = end > a.high
	a.high = max(a.high, end)
	return p, grew, true
}

// firstFit returns the lowest run of n free frames ending at or below
// end (end <= limit()).
func (a *frameAlloc) firstFit(n, end uint32) (uint32, bool) {
	for p := a.low; p+n <= end; p = a.nextFree(p) {
		stop := a.nextUsed(p, p+n)
		if stop == p+n {
			return p, true
		}
		p = stop
	}
	return 0, false
}

// release returns n frames starting at p. Freeing a frame that is
// already free, or one outside memory, is a bookkeeping bug that would
// hand one frame to two owners; it panics rather than corrupt a VM.
func (a *frameAlloc) release(p, n uint32) {
	if p >= a.pages || n > a.pages-p {
		panic(fmt.Sprintf("vmm: freeing frames %d+%d outside %d-page memory", p, n, a.pages))
	}
	for f := p; f < p+n; f++ {
		bit := uint64(1) << (f % 64)
		if a.used[f/64]&bit == 0 {
			panic(fmt.Sprintf("vmm: frame %d freed twice", f))
		}
		a.used[f/64] &^= bit
	}
	a.free += n
	a.low = min(a.low, p)
}
