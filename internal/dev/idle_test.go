package dev

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/vax"
)

// Run jumps idle WAIT stretches to the next device event (cpu.EventDevice).
// These tests pin that jump to the single-step reference: a WAITing
// machine driven by Run(n) must end exactly where n Step calls leave it.

// posted is one interrupt request seen by the rearm device: the machine
// cycle at which it posted and its level.
type posted struct {
	cycles uint64
	level  uint8
}

// rearm models a monitor that takes every device interrupt and idles
// again: ticked after the other devices, it logs any pending request,
// withdraws it and puts the processor back in WAIT. It changes state
// only in the tick where another device fires, so it has no event of
// its own.
type rearm struct{ log []posted }

func (r *rearm) Tick(c *cpu.CPU, _ uint64) {
	lvl := c.PendingAbove(0)
	if lvl == 0 {
		return
	}
	r.log = append(r.log, posted{c.Cycles, lvl})
	for ; lvl > 0; lvl = c.PendingAbove(0) {
		c.ClearInterrupt(lvl)
	}
	c.SetWaiting(true)
}

func (r *rearm) NextEvent() uint64 { return cpu.NoEvent }

// tickCounter is a device without NextEvent: attaching it must turn
// the idle skip off.
type tickCounter struct{ calls uint64 }

func (d *tickCounter) Tick(*cpu.CPU, uint64) { d.calls++ }

// idleRig is a WAITing machine with the three device models and the
// rearm observer.
type idleRig struct {
	c    *cpu.CPU
	con  *Console
	clk  *Clock
	disk *Disk
	obs  *rearm
}

const (
	rigDiskBase = 0x20000000
	rigDMAAddr  = 0x1000
)

func newIdleRig(t *testing.T, clockPeriod uint32, extra ...cpu.Device) *idleRig {
	t.Helper()
	r := &idleRig{c: newCPU(t), con: NewConsole(), clk: NewClock(), disk: NewDisk(rigDiskBase, 4), obs: &rearm{}}
	for _, d := range []cpu.Device{r.con, r.clk, r.disk} {
		r.c.AddDevice(d)
	}
	for _, d := range extra {
		r.c.AddDevice(d)
	}
	r.c.AddDevice(r.obs)
	if clockPeriod > 0 {
		r.clk.Interval(clockPeriod)
	}
	if err := r.c.WriteIPR(vax.IPRRXCS, vax.ConsoleIE); err != nil {
		t.Fatal(err)
	}
	copy(r.disk.Image(), "idle-skip")
	r.c.SetWaiting(true)
	return r
}

// startDisk issues an interrupting one-block read.
func (r *idleRig) startDisk(t *testing.T) {
	t.Helper()
	for _, w := range []struct{ off, v uint32 }{
		{DiskRegBlock, 0}, {DiskRegAddr, rigDMAAddr}, {DiskRegCount, vax.PageSize},
		{DiskRegCSR, DiskCSRGo | DiskFuncRead | DiskCSRIE},
	} {
		if err := r.disk.StoreReg(r.c, w.off, w.v); err != nil {
			t.Fatal(err)
		}
	}
}

// stepN is the reference: n single steps.
func stepN(c *cpu.CPU, n uint64) uint64 {
	var i uint64
	for ; i < n && !c.Halted; i++ {
		c.Step()
	}
	return i
}

// rigState is everything a skip could get wrong.
type rigState struct {
	Cycles     uint64
	Stats      cpu.Stats
	Waiting    bool
	Pending    uint8
	ClockTicks uint64
	ICR, ICCS  uint32
	DiskCSR    uint32
	DiskReads  uint64
	DMA        uint32
	RXCS       uint32
	Posted     []posted
}

func (r *idleRig) state(t *testing.T) rigState {
	t.Helper()
	ipr := func(reg vax.IPR) uint32 {
		v, err := r.c.ReadIPR(reg)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	dma, err := r.c.Mem.LoadLong(rigDMAAddr)
	if err != nil {
		t.Fatal(err)
	}
	s := r.c.Stats
	s.IdleSkips, s.IdleSkippedSteps = 0, 0 // how the steps were taken, not what they did
	return rigState{
		Cycles: r.c.Cycles, Stats: s, Waiting: r.c.Waiting(), Pending: r.c.PendingAbove(0),
		ClockTicks: r.clk.Ticks, ICR: ipr(vax.IPRICR), ICCS: ipr(vax.IPRICCS),
		DiskCSR: r.disk.csr, DiskReads: r.disk.Reads, DMA: dma,
		RXCS: ipr(vax.IPRRXCS), Posted: r.obs.log,
	}
}

// TestRunIdleSkipMatchesStep drives pairs of identical WAITing machines,
// one with Run and one with single steps, over budgets that end before,
// on and just after device events and mid-way through idle stretches,
// and requires identical machine state, including the cycle at which
// every interrupt posted.
func TestRunIdleSkipMatchesStep(t *testing.T) {
	scenarios := []struct {
		name   string
		period uint32
		setup  func(t *testing.T, r *idleRig)
		// feedAt, when non-zero, queues console input after that many
		// steps (a byte arriving mid-wait).
		feedAt uint64
		// stepsOnly marks scenarios where no jump is possible.
		stepsOnly bool
	}{
		{name: "clock", period: 100},
		{name: "clock-odd-period", period: 103},
		{name: "clock-short-period", period: 3, stepsOnly: true},
		{name: "clock-stopped", period: 0},
		{name: "disk", period: 1000, setup: func(t *testing.T, r *idleRig) { r.startDisk(t) }},
		{name: "disk-no-clock", period: 0, setup: func(t *testing.T, r *idleRig) { r.startDisk(t) }},
		{name: "console-queued", period: 1000, setup: func(_ *testing.T, r *idleRig) { r.con.Feed("q") }},
		{name: "console-mid-wait", period: 1000, feedAt: 37},
		// WAIT entered with an interrupt already deliverable: the next
		// step delivers it rather than idling.
		{name: "deliverable-at-wait", period: 1000, stepsOnly: true, setup: func(_ *testing.T, r *idleRig) {
			r.c.RequestInterrupt(vax.IPLClock, vax.VecClock)
			r.c.SetWaiting(true)
		}},
	}
	budgets := []uint64{1, 2, 3, 24, 25, 26, 49, 50, 51, 249, 250, 251, 1001, 4999}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var skipped uint64
			for _, n := range budgets {
				run, ref := newIdleRig(t, sc.period), newIdleRig(t, sc.period)
				if sc.setup != nil {
					sc.setup(t, run)
					sc.setup(t, ref)
				}
				var got, want uint64
				if sc.feedAt > 0 && sc.feedAt < n {
					got = run.c.Run(sc.feedAt)
					want = stepN(ref.c, sc.feedAt)
					run.con.Feed("m")
					ref.con.Feed("m")
					got += run.c.Run(n - sc.feedAt)
					want += stepN(ref.c, n-sc.feedAt)
				} else {
					got = run.c.Run(n)
					want = stepN(ref.c, n)
				}
				if got != want || got != n && !run.c.Halted {
					t.Fatalf("budget %d: Run took %d steps, Step loop %d", n, got, want)
				}
				if gs, ws := run.state(t), ref.state(t); !reflect.DeepEqual(gs, ws) {
					t.Fatalf("budget %d: Run state differs from Step loop\nrun:  %+v\nstep: %+v", n, gs, ws)
				}
				skipped += run.c.Stats.IdleSkippedSteps
			}
			if skipped == 0 && !sc.stepsOnly {
				t.Fatal("Run never skipped: the comparison proves nothing")
			}
		})
	}
}

// TestRunIdleSkipCount pins the jump length. A 100-cycle clock gives a
// 25-step idle period (CostWaitIdle is 4): each period must be one jump
// over 24 steps plus the Step that fires the tick. A jump one step
// longer or shorter changes both counts.
func TestRunIdleSkipCount(t *testing.T) {
	r := newIdleRig(t, 100)
	c0 := r.c.Cycles
	if got := r.c.Run(250); got != 250 {
		t.Fatalf("Run(250) took %d steps", got)
	}
	s := r.c.Stats
	if s.IdleSkips != 10 || s.IdleSkippedSteps != 240 {
		t.Errorf("idle skips %d over %d steps, want 10 over 240", s.IdleSkips, s.IdleSkippedSteps)
	}
	if r.clk.Ticks != 10 || r.c.Cycles-c0 != 1000 || len(r.obs.log) != 10 {
		t.Errorf("ticks %d cycles %d posts %d, want 10, 1000, 10", r.clk.Ticks, r.c.Cycles-c0, len(r.obs.log))
	}
	for i, p := range r.obs.log {
		if want := c0 + uint64(i+1)*100; p.cycles != want || p.level != vax.IPLClock {
			t.Errorf("post %d = %+v, want clock at cycle %d", i, p, want)
		}
	}
}

// TestRunIdleSkipNeedsEventDevices: one attached device without
// NextEvent turns the skip off, so it still sees every idle step.
func TestRunIdleSkipNeedsEventDevices(t *testing.T) {
	plain := &tickCounter{}
	r := newIdleRig(t, 100, plain)
	ref := newIdleRig(t, 100, &tickCounter{})
	r.c.Run(1000)
	stepN(ref.c, 1000)
	if r.c.Stats.IdleSkips != 0 || r.c.Stats.IdleSkippedSteps != 0 {
		t.Errorf("skipped with a non-event device attached: %+v", r.c.Stats)
	}
	if plain.calls != 1000 {
		t.Errorf("plain device ticked %d times over 1000 steps", plain.calls)
	}
	if gs, ws := r.state(t), ref.state(t); !reflect.DeepEqual(gs, ws) {
		t.Errorf("state differs:\nrun:  %+v\nstep: %+v", gs, ws)
	}
}

// TestNextEvent checks each device's event horizon against its Tick:
// ticking one cycle short of NextEvent changes nothing visible, and
// ticking the rest fires the event.
func TestNextEvent(t *testing.T) {
	c := newCPU(t)

	k := NewClock()
	if k.NextEvent() != cpu.NoEvent {
		t.Error("stopped clock has an event")
	}
	k.Interval(100)
	k.Tick(c, 30)
	if got := k.NextEvent(); got != 70 {
		t.Fatalf("clock NextEvent = %d, want 70", got)
	}
	k.Tick(c, 69)
	if k.Ticks != 0 || k.NextEvent() != 1 {
		t.Fatalf("clock fired early: ticks %d next %d", k.Ticks, k.NextEvent())
	}
	k.Tick(c, 1)
	if k.Ticks != 1 || k.NextEvent() != 100 {
		t.Fatalf("clock after event: ticks %d next %d", k.Ticks, k.NextEvent())
	}
	c.ClearInterrupt(vax.IPLClock)

	d := NewDisk(rigDiskBase, 4)
	if d.NextEvent() != cpu.NoEvent {
		t.Error("idle disk has an event")
	}
	if err := d.StoreReg(c, DiskRegCSR, DiskCSRGo|DiskFuncRead); err != nil {
		t.Fatal(err)
	}
	if got := d.NextEvent(); got != DiskLatency {
		t.Fatalf("disk NextEvent = %d, want %d", got, DiskLatency)
	}
	d.Tick(c, DiskLatency-1)
	if d.csr&DiskCSRReady != 0 || d.NextEvent() != 1 {
		t.Fatalf("disk completed early: csr %#x next %d", d.csr, d.NextEvent())
	}
	d.Tick(c, 1)
	if d.csr&DiskCSRReady == 0 || d.NextEvent() != cpu.NoEvent {
		t.Fatalf("disk after completion: csr %#x next %d", d.csr, d.NextEvent())
	}

	con := NewConsole()
	con.Feed("x")
	if con.NextEvent() != cpu.NoEvent {
		t.Error("console with receive interrupts off has an event")
	}
	if err := con.WriteIPR(c, vax.IPRRXCS, vax.ConsoleIE); !err {
		t.Fatal("RXCS write not claimed")
	}
	if con.NextEvent() != 0 {
		t.Fatal("queued byte with IE set is not an immediate event")
	}
	con.Tick(c, 1)
	if con.NextEvent() != cpu.NoEvent || c.PendingAbove(0) != vax.IPLConsole {
		t.Fatalf("console after posting: next %d pending %d", con.NextEvent(), c.PendingAbove(0))
	}
}
