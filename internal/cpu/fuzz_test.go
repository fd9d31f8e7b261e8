package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/vax"
)

// Robustness: no byte stream, executed in any mode on either variant,
// may panic the interpreter or corrupt the machine invariants. Random
// programs mostly fault immediately; the point is that every path ends
// in an architectural response (fault, halt, or progress), never a Go
// panic or a privilege violation.

func TestRandomCodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const trials = 300

	for trial := 0; trial < trials; trial++ {
		code := make([]byte, 64)
		rng.Read(code)

		for _, variant := range []Variant{StandardVAX, ModifiedVAX} {
			m := mem.New(64 * 1024)
			if err := m.StoreBytes(0x400, code); err != nil {
				t.Fatal(err)
			}
			c := New(m, variant)
			c.SCBB = 0 // SCB page is all zeros: any dispatch double-faults
			startMode := vax.Mode(rng.Intn(4))
			c.SetStackFor(startMode, 0x8000)
			c.SetPSL(vax.PSL(0).WithCur(startMode).WithPrv(startMode))
			c.SetPC(0x400)

			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("trial %d variant %s mode %s: panic %v on code %x",
							trial, variant, startMode, r, code)
					}
				}()
				c.Run(200)
			}()

			// Machine invariants survive arbitrary code.
			if c.PSL().Cur() == vax.Kernel && startMode != vax.Kernel && !c.Halted {
				// Reaching kernel mode is only legal through the SCB,
				// whose vectors are zero here — so the machine must have
				// halted (double error) if it ever dispatched.
				t.Fatalf("trial %d: random %s-mode code reached kernel mode, code %x",
					trial, startMode, code)
			}
			if c.PSL().VM() && variant == StandardVAX {
				t.Fatalf("trial %d: standard VAX set PSL<VM>", trial)
			}
		}
	}
}

func TestRandomCodeInVMNeverEscapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const trials = 200

	for trial := 0; trial < trials; trial++ {
		code := make([]byte, 48)
		rng.Read(code)
		m := mem.New(256 * 1024)
		if err := m.StoreBytes(16*vax.PageSize, code); err != nil {
			t.Fatal(err)
		}
		c := New(m, ModifiedVAX)
		for i := uint32(0); i < 32; i++ {
			pte := vax.NewPTE(true, vax.ProtUW, true, 16+i)
			if err := m.StoreLong(0x1000+4*i, uint32(pte)); err != nil {
				t.Fatal(err)
			}
		}
		c.MMU.SBR = 0x1000
		c.MMU.SLR = 32
		c.MMU.Enabled = true
		sink := &recordSink{onTrap: func(c *CPU, e *vax.Exception) bool {
			// Stand-in VMM: consume everything and halt, like a VMM
			// terminating a misbehaving VM.
			c.Halt(HaltInstruction)
			return true
		}}
		c.Sink = sink
		c.SetStackFor(vax.Executive, vax.SystemBase+16*vax.PageSize)
		c.SetPSL(vax.PSL(0).WithCur(vax.Executive).WithPrv(vax.Executive).WithVM(true))
		c.VMPSL = vax.PSL(0).WithCur(vax.Kernel).WithPrv(vax.Kernel)
		c.SetPC(vax.SystemBase)

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic %v on code %x", trial, r, code)
				}
			}()
			c.Run(200)
		}()

		// The VM must never reach real kernel mode on its own: every
		// event lands in the sink, never past it.
		if c.PSL().Cur() == vax.Kernel && !c.Halted {
			t.Fatalf("trial %d: VM code reached real kernel mode, code %x", trial, code)
		}
	}
}

// Decode-cache coherence. The cache must be invisible: a CPU replaying
// cached decodes and a reference that flushes the cache before every
// Step (so it always decodes from memory) must agree on every register,
// the PSL, the cycle count and all of memory, whatever the code does to
// its own instruction stream and whatever is written underneath it.

const (
	cohMemBytes = 64 * 1024
	cohSPT      = 0x200 // physical address of the system page table
	cohPages    = 8     // mapped S0 pages
	cohMaxInstr = 48
)

// cohFrames backs S0 page i with frame cohFrames[i]. The frames are not
// contiguous, so an instruction straddling two virtual pages has its
// bytes in two physically distant places.
var cohFrames = [cohPages]uint32{12, 9, 14, 8, 11, 15, 10, 13}

// cohPA is the physical address behind S0 virtual address va.
func cohPA(va uint32) uint32 {
	off := va - vax.SystemBase
	return cohFrames[off/vax.PageSize%cohPages]*vax.PageSize + off%vax.PageSize
}

// cohSource turns fuzz bytes into a program: three bytes per
// instruction, drawn from a menu of register arithmetic, stores of
// every width into the program's own bytes (and a data area), string
// moves over code, short loops, forward branches and TLB invalidates.
func cohSource(prog []byte) string {
	n := len(prog) / 3
	if n > cohMaxInstr {
		n = cohMaxInstr
	}
	target := func(a, b byte) string {
		if a >= 240 {
			return fmt.Sprintf("data+%d", b%32)
		}
		return fmt.Sprintf("i%d+%d", int(a)%n, b%10)
	}
	var sb strings.Builder
	sb.WriteString("\tmovl #4, r7\n")
	for i := 0; i < n; i++ {
		op, a, b := prog[3*i], prog[3*i+1], prog[3*i+2]
		fmt.Fprintf(&sb, "i%d:\t", i)
		switch op % 12 {
		case 0:
			fmt.Fprintf(&sb, "movl #%d, r%d", int(a)<<8|int(b), a%6)
		case 1:
			fmt.Fprintf(&sb, "addl2 r%d, r%d", a%6, b%6)
		case 2:
			fmt.Fprintf(&sb, "movb #%d, @#%s", b, target(a, b))
		case 3:
			fmt.Fprintf(&sb, "movl r%d, @#%s", b%6, target(a, b))
		case 4:
			fmt.Fprintf(&sb, "movw r%d, @#%s", b%6, target(a, b))
		case 5:
			fmt.Fprintf(&sb, "incl @#%s", target(a, b))
		case 6:
			fmt.Fprintf(&sb, "sobgtr r7, i%d", i-int(a)%(min(i, 3)+1))
		case 7:
			fmt.Fprintf(&sb, "brw i%d", i+1+int(a)%(n-i))
		case 8:
			fmt.Fprintf(&sb, "mtpr #0, #%d", vax.IPRTBIA)
		case 9:
			fmt.Fprintf(&sb, "mtpr #%d, #%d", vax.SystemBase+uint32(a%3)*vax.PageSize, vax.IPRTBIS)
		case 10:
			fmt.Fprintf(&sb, "movc3 #%d, @#%s, @#%s", b%16, target(a, b), target(b, a))
		default:
			fmt.Fprintf(&sb, "xorl2 #%d, r%d", b, a%6)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "i%d:\thalt\ndata:\t.space 40\n", n)
	return sb.String()
}

// cohMachine maps S0 pages 0-7 onto cohFrames, loads code at origin
// (an S0 address) through that mapping and points every SCB vector at
// a handler (on S0 page 6, which the program's stores never reach) that
// resets the stack and the loop counter and restarts the program at
// restart: a program whose self-modification produces a faulting
// instruction goes round again instead of stopping, replaying
// whatever stayed cached.
func cohMachine(t *testing.T, code []byte, origin, restart uint32) (*CPU, *mem.Memory) {
	m := mem.New(cohMemBytes)
	for i, f := range cohFrames {
		pte := vax.NewPTE(true, vax.ProtUW, true, f)
		if err := m.StoreLong(cohSPT+4*uint32(i), uint32(pte)); err != nil {
			t.Fatal(err)
		}
	}
	store := func(va uint32, b []byte) {
		for i := range b {
			if err := m.StoreByte(cohPA(va+uint32(i)), b[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	store(origin, code)
	stackTop := vax.SystemBase + cohPages*vax.PageSize
	handlerVA := vax.SystemBase + 6*vax.PageSize
	h, err := asm.Assemble(fmt.Sprintf("\tmovl #%d, sp\n\tmovl #4, r7\n\tjmp @#%d\n", stackTop, restart), handlerVA)
	if err != nil {
		t.Fatal(err)
	}
	store(handlerVA, h.Code)
	for v := uint32(0); v < vax.PageSize; v += 4 {
		if err := m.StoreLong(v, handlerVA); err != nil {
			t.Fatal(err)
		}
	}
	c := New(m, StandardVAX)
	c.SCBB = 0
	c.MMU.SBR = cohSPT
	c.MMU.SLR = cohPages
	c.MMU.Enabled = true
	c.SetStackFor(vax.Kernel, stackTop)
	c.SetPSL(vax.PSL(0).WithCur(vax.Kernel))
	c.SetPC(origin)
	return c, m
}

// cohRun executes the program on a cached CPU and on a flushing
// reference, interleaving events: runs of steps, and DMA-style writes
// into the code (direct memory stores announced via InvalidateDecode).
func cohRun(t *testing.T, prog, events []byte) {
	if len(prog) < 3 {
		return
	}
	src := cohSource(prog)
	origin := vax.SystemBase + vax.PageSize - uint32(prog[0]%64)
	p, err := asm.Assemble(src, origin)
	if err != nil {
		t.Fatalf("generated program does not assemble: %v\n%s", err, src)
	}
	if len(p.Code) > (cohPages-1)*vax.PageSize {
		t.Fatalf("generated program too long: %d bytes", len(p.Code))
	}
	restart := p.MustSymbol("i0")
	c, cm := cohMachine(t, p.Code, origin, restart)
	ref, rm := cohMachine(t, p.Code, origin, restart)
	step := func() {
		ref.FlushDecodeCache()
		ref.Step()
		c.Step()
		if c.R != ref.R || c.PSL() != ref.PSL() || c.Cycles != ref.Cycles || c.Halted != ref.Halted {
			t.Fatalf("cached CPU diverged from the reference:\n  cached: pc=%#x psl=%s cycles=%d halted=%t R=%x\n  ref:    pc=%#x psl=%s cycles=%d halted=%t R=%x\n%s",
				c.PC(), c.PSL(), c.Cycles, c.Halted, c.R,
				ref.PC(), ref.PSL(), ref.Cycles, ref.Halted, ref.R, src)
		}
	}
	for i := 0; i < len(events) && !ref.Halted; i++ {
		e := events[i]
		switch {
		case e == 0xFC:
			// Whole-memory invalidation: the single-sweep route.
			c.InvalidateDecode(0, cohMemBytes)
		case e&3 == 0 && i+2 < len(events):
			off := uint32(events[i+1]) | uint32(e>>2&1)<<8
			n := 1 + uint32(e>>3)%8
			pa := cohPA(origin + off)
			buf := bytes.Repeat([]byte{events[i+2]}, int(n))
			for _, mm := range []*mem.Memory{cm, rm} {
				if err := mm.StoreBytes(pa, buf); err != nil {
					t.Fatal(err)
				}
			}
			c.InvalidateDecode(pa, n)
			ref.InvalidateDecode(pa, n)
			i += 2
		default:
			for k := 0; k <= int(e>>2) && !ref.Halted; k++ {
				step()
			}
		}
	}
	for k := 0; k < 300 && !ref.Halted; k++ {
		step()
	}
	got, err := cm.LoadBytes(0, cohMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rm.LoadBytes(0, cohMemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("memory diverged at %#x: cached %#x, reference %#x\n%s", i, got[i], want[i], src)
			}
		}
	}
}

// FuzzDecodeCoherence checks that the decoded-instruction cache never
// changes what a program computes. The committed corpus (testdata)
// covers self-modifying loops, stores into straddling instructions,
// string moves over code and DMA-style overwrites; every go test run
// replays it.
func FuzzDecodeCoherence(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, events []byte) {
		cohRun(t, prog, events)
	})
}
