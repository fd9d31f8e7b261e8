package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vax"
)

// fleet-run: a clone-backed fleet on the M:N engine with the
// translation tier on. Two templates are booted from images and every
// other VM is a VMM.Clone of one of them: mostly WAIT-loop idlers and
// one compute guest per handful. Every VM runs to HALT. This loads the
// superblock tier, the decode cache, park/wake/steal scheduling and
// COW sharing, and leaves trap emulation, shadow fill and KCALL nearly
// unused — a translation-tier change shows here and should show no
// change on os-mix, where the tier is off.
//
// One operation is one VMM.Clone: the stamping call a fleet operator
// waits on. A lifecycle is clone → run to HALT → DestroyVM.

const (
	fleetRunWorkers = 2 // the M:N pool; fixed so the workload is the same on every host

	// Guest layout (VM-physical): identity-mapped system page table,
	// code at a fixed offset, 64 KB of memory, result cell at 0x6000.
	guestSPT    = 0x0200
	guestSPTLen = 64
	guestCode   = 0x1000
	guestMem    = 64 << 10
	guestResult = 0x6000
)

type fleetRun struct {
	spec                    fleetRunSpec
	idleImg, computeImg     []byte
	idleStart, computeStart uint32
}

func newFleetRun(o options) (rounder, error) {
	w := &fleetRun{spec: genFleetRun(o.seed, o.size)}
	primeMemory(w.memBytes())
	var err error
	w.computeImg, w.computeStart, err = guestImage(fmt.Sprintf(`
start:	clrl r0
	movl #%d, r1
loop:	addl2 r1, r0
	sobgtr r1, loop
	movl r0, @#%#x
	halt
`, w.spec.ComputeIters, vax.SystemBase+guestResult))
	if err != nil {
		return nil, err
	}
	w.idleImg, w.idleStart, err = guestImage(fmt.Sprintf(`
start:	movl #%d, r10
loop:	wait
	sobgtr r10, loop
	halt
`, w.spec.IdleWaits))
	return w, err
}

// guestImage assembles a pre-mapped 64 KB guest image.
func guestImage(src string) ([]byte, uint32, error) {
	prog, err := asm.Assemble(src, vax.SystemBase+guestCode)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet-run: assembling guest: %w", err)
	}
	img := make([]byte, guestMem)
	for i := uint32(0); i < guestSPTLen; i++ {
		binary.LittleEndian.PutUint32(img[guestSPT+4*i:], uint32(vax.NewPTE(true, vax.ProtUW, true, i)))
	}
	copy(img[guestCode:], prog.Code)
	return img, prog.MustSymbol("start"), nil
}

// memBytes sizes the monitor below the fleet's nominal footprint
// (overcommit): a clone occupies its shadow tables plus the pages it
// writes, not its 64 KB.
func (w *fleetRun) memBytes() uint32 { return uint32(len(w.spec.Compute))*(48<<10) + (1 << 20) }

func (w *fleetRun) round(tr *tracer, la *layerAcc) (roundResult, error) {
	var r roundResult
	n := len(w.spec.Compute)
	root := tr.id()
	setupID := tr.id()
	t0 := time.Now()

	cfg := core.Config{Workers: fleetRunWorkers, Translation: true, WaitTimeout: 2}
	var rec *trace.Recorder
	if la != nil {
		rec = trace.NewRecorder(64)
		cfg.Recorder = rec
	}
	var k *core.VMM
	newT := tr.timed(setupID, "fleet-run", "core.new", func() {
		k = core.New(w.memBytes(), cfg)
	})
	defer k.Release()
	la.sample("core.new_ms", float64(newT.Microseconds())/1000)

	boot := func(slot int, img []byte, start uint32) (vm *core.VM, err error) {
		tr.timed(setupID, fmt.Sprintf("vm%d", slot), "core.create", func() {
			vm, err = k.CreateVM(core.VMConfig{
				Name: fmt.Sprintf("vm%d", slot), MemBytes: guestMem, Image: img, StartPC: start,
				PreMapped: true, SBR: guestSPT, SLR: guestSPTLen,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("fleet-run: booting template vm%d: %w", slot, err)
		}
		vm.SPs[vax.Kernel] = vax.SystemBase + 0x8000
		vm.ISP = vax.SystemBase + 0x8800
		return vm, nil
	}
	vms := make([]*core.VM, n)
	var err error
	if vms[0], err = boot(0, w.idleImg, w.idleStart); err != nil {
		return r, err
	}
	var computeT *core.VM
	for slot := 1; slot < n; slot++ {
		src := vms[0]
		if w.spec.Compute[slot] {
			if computeT == nil {
				if computeT, err = boot(slot, w.computeImg, w.computeStart); err != nil {
					return r, err
				}
				vms[slot] = computeT
				continue
			}
			src = computeT
		}
		d := tr.timed(setupID, fmt.Sprintf("vm%d", slot), "core.clone", func() {
			vms[slot], err = k.Clone(src, fmt.Sprintf("vm%d", slot))
		})
		if err != nil {
			return r, fmt.Errorf("fleet-run: cloning vm%d: %w", slot, err)
		}
		us := float64(d.Nanoseconds()) / 1e3
		r.ops = append(r.ops, us)
		la.sample("core.clone_us", us)
	}
	carved0 := k.CarvedPages()
	t1 := time.Now()
	r.setup = t1.Sub(t0)
	tr.add(setupID, root, "fleet-run", "setup", t0, t1)

	runID := tr.id()
	tr.timed(runID, "fleet-run", "core.run", func() { k.Run(0) })
	t2 := time.Now()
	r.run = t2.Sub(t1)
	tr.add(runID, root, "fleet-run", "run", t1, t2)
	pr := k.LastParallelRun()
	r.instrs = pr.Instrs
	for _, vm := range vms {
		r.cycles += vm.CyclesUsed()
	}
	r.cycles += k.VMMCycles()

	// Checks: every VM halted cleanly; every compute guest's result
	// cell holds the closed form.
	want := computeResult(w.spec.ComputeIters)
	for slot, vm := range vms {
		r.attempted++
		if h, msg := vm.Halted(); !h || msg != haltVMKernel {
			r.failures = append(r.failures, fmt.Sprintf("fleet-run vm%d: halted=%t %q", slot, h, msg))
			continue
		}
		if w.spec.Compute[slot] {
			mem := vm.DumpMemory()
			if len(mem) < guestMem {
				r.failures = append(r.failures, fmt.Sprintf("fleet-run vm%d: memory unreadable", slot))
				continue
			}
			if got := binary.LittleEndian.Uint32(mem[guestResult:]); got != want {
				r.failures = append(r.failures, fmt.Sprintf("fleet-run vm%d: result %d, want %d", slot, got, want))
				continue
			}
		}
		r.lifecycles++
	}
	if la != nil {
		w.layers(k, vms, pr, rec, la, carved0)
	}
	checkID := tr.id()
	t3 := time.Now()
	for slot, vm := range vms {
		tr.timed(checkID, fmt.Sprintf("vm%d", slot), "core.destroy", func() { err = k.DestroyVM(vm) })
		if err != nil {
			return r, fmt.Errorf("fleet-run: destroying vm%d: %w", slot, err)
		}
	}
	if left := len(k.VMs()); left != 0 {
		r.failures = append(r.failures, fmt.Sprintf("fleet-run: %d VMs left after destroy", left))
	}
	tr.add(checkID, root, "fleet-run", "check", t3, time.Now())
	tr.add(root, 0, "fleet-run", "round", t0, time.Now())
	return r, nil
}

func (w *fleetRun) layers(k *core.VMM, vms []*core.VM, pr core.ParallelRunStats, rec *trace.Recorder, la *layerAcc, carved0 uint32) {
	p := trace.Capture(pr)
	la.count("cpu.instructions", float64(p.Get("instructions")))
	la.count("cpu.decode_hits", float64(p.Get("decode_hits")))
	la.count("cpu.decode_misses", float64(p.Get("decode_misses")))
	la.count("cpu.decode_invalidations", float64(p.Get("decode_invalidations")))
	la.count("cpu.sb_steps", float64(p.Get("sb_steps")))
	la.count("cpu.sb_enters", float64(p.Get("sb_enters")))
	la.count("core.sched.parks", float64(p.Get("parks")))
	la.count("core.sched.steals", float64(p.Get("steals")))
	la.count("core.sched.dispatches", float64(p.Get("dispatches")))
	la.sample("core.sched.occupancy_permille", float64(p.Get("worker_occupancy_permille")))
	la.count("core.world_switches", float64(trace.Capture(k).Get("world_switches")))
	var cycles uint64
	for _, vm := range vms {
		cycles += vm.CyclesUsed()
	}
	la.count("cpu.cycles", float64(cycles+k.VMMCycles()))
	la.count("core.vmm_cycles", float64(k.VMMCycles()))
	addVMCounters(la, vms)
	addRecorder(la, rec)
	la.sample("core.carved_pages", float64(k.CarvedPages()))
	la.count("core.carved_growth_pages", float64(k.CarvedPages()-carved0))
}
