package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/vax"
)

// The fleet control plane's golden-image guest: store a counter, WAIT,
// repeat forever. A fleet of these is idle almost all the time.
const idleStampSrc = `
start:	clrl r0
loop:	incl r0
	movl r0, @#0x80004000
	wait
	brb loop
`

// idleHelloSrc prints over the virtual console, then idles.
const idleHelloSrc = `
start:	mtpr #104, #35
	mtpr #105, #35
	mtpr #10, #35
loop:	wait
	brb loop
`

// idleFleetQuantum is the drive quantum of the fleet-API benchmark and
// soak: steps per VMM.Run call.
const idleFleetQuantum = 5000

// newIdleFleetVM creates one pre-mapped fleet guest the way the fleet
// manager does.
func newIdleFleetVM(t *testing.T, k *VMM, name, src string) *VM {
	t.Helper()
	img, prog := guestImage(t, src, nil)
	vm, err := k.CreateVM(VMConfig{
		Name: name, MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.SPs[vax.Kernel] = gKSP
	vm.ISP = gISP
	return vm
}

// stepQuantum is VMM.Run(q) for the serial engine with the processor
// single-stepped: the reference the idle skip must match.
func stepQuantum(k *VMM, q uint64) {
	if k.Current() == nil {
		k.scheduleNext()
	}
	for i := uint64(0); i < q && !k.CPU.Halted; i++ {
		k.CPU.Step()
	}
}

// idleFleetState is what the skip must leave untouched, machine-wide
// and per VM.
type idleFleetState struct {
	Cycles, Instructions, ClockTicks uint64
	VMs                              []string
	// Audit carries the cycle stamp of every world switch: the points
	// where clock interrupts were delivered and VMs woke.
	Audit []AuditEvent
}

// runIdleFleet builds a golden stamp VM and a console VM, drives a few
// quanta, stamps clones of the golden image (the fleet manager's
// create-then-clone order) and drives on, using quantum for every
// drive step.
func runIdleFleet(t *testing.T, quantum func(k *VMM, q uint64)) (idleFleetState, uint64) {
	t.Helper()
	k := New(8<<20, Config{})
	defer k.Release()
	k.EnableAudit(1 << 14)
	golden := newIdleFleetVM(t, k, "golden", idleStampSrc)
	newIdleFleetVM(t, k, "hello", idleHelloSrc)
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if k.CPU.Halted {
				k.CPU.ClearHalt()
			}
			quantum(k, idleFleetQuantum)
		}
	}
	drive(4)
	for i := 0; i < 6; i++ {
		if _, err := k.Clone(golden, fmt.Sprintf("clone%d", i)); err != nil {
			t.Fatal(err)
		}
		drive(1)
	}
	drive(40)
	st := idleFleetState{Cycles: k.CPU.Cycles, Instructions: k.CPU.Stats.Instructions, ClockTicks: k.Stats.ClockTicks}
	for _, vm := range k.VMs() {
		halted, msg := vm.Halted()
		st.VMs = append(st.VMs, fmt.Sprintf("%s cycles=%d ticks=%d halted=%v %q console=%q counter=%d",
			vm.Name(), vm.CyclesUsed(), vm.Ticks(), halted, msg, vm.ConsoleOutput(), guestLong(t, vm, 0x4000)))
	}
	if k.AuditDropped() != 0 {
		t.Fatalf("audit ring overflowed by %d events", k.AuditDropped())
	}
	st.Audit = k.AuditTrail()
	return st, k.CPU.Stats.IdleSkippedSteps
}

// TestIdleFleetRunMatchesStep drives the same serial idle fleet with
// VMM.Run quanta (idle WAIT stretches jumped) and with a single-step
// loop, and requires identical machine cycles, clock ticks, per-VM
// cycles, virtual ticks, console output, guest memory and world-switch
// cycle stamps.
func TestIdleFleetRunMatchesStep(t *testing.T) {
	got, skipped := runIdleFleet(t, func(k *VMM, q uint64) { k.Run(q) })
	want, refSkipped := runIdleFleet(t, stepQuantum)
	if refSkipped != 0 {
		t.Fatalf("reference skipped %d steps", refSkipped)
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions || got.ClockTicks != want.ClockTicks {
		t.Errorf("machine: Run cycles=%d instr=%d ticks=%d, Step cycles=%d instr=%d ticks=%d",
			got.Cycles, got.Instructions, got.ClockTicks, want.Cycles, want.Instructions, want.ClockTicks)
	}
	if !reflect.DeepEqual(got.VMs, want.VMs) {
		t.Errorf("VMs differ:\n run: %q\nstep: %q", got.VMs, want.VMs)
	}
	if !reflect.DeepEqual(got.Audit, want.Audit) {
		t.Errorf("audit trails differ: Run %d events, Step %d", len(got.Audit), len(want.Audit))
		for i := range min(len(got.Audit), len(want.Audit)) {
			if got.Audit[i] != want.Audit[i] {
				t.Errorf("first difference at %d:\n run: %+v\nstep: %+v", i, got.Audit[i], want.Audit[i])
				break
			}
		}
	}
	// 50 quanta of 5000 steps: the fleet is idle, so most steps must
	// have been jumped or the comparison proves nothing.
	if total := uint64(50 * idleFleetQuantum); skipped < total/2 {
		t.Errorf("only %d of %d steps skipped", skipped, total)
	}
}
