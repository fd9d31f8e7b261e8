package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// os-mix: the paper's own workload (§7.3) scaled up — four MiniOS VMs
// on the deterministic serial engine, each running a generated
// Edit + TP mix with preemption on, the multi-process shadow cache at
// four slots and the translation tier off (the paper's design point).
// Host time goes to VM-emulation traps, shadow fills, world switches,
// KCALL I/O, MMU translation and decode-cache invalidation; the
// superblock tier, the M:N scheduler, COW, checkpoints and HTTP stay
// idle.
//
// The run phase is driven in quanta, as the fleet manager drives a
// machine: one operation is one VMM.Run of osMixQuantum steps, the
// stretch an operator or API caller queues behind.

const (
	osMixQuantum  = 50_000 // the fleet manager's default quantum
	osMixMaxSteps = 2_000_000_000
	osMixMemBytes = 16 << 20
	haltVMKernel  = "HALT executed in VM kernel mode"
)

type osMix struct {
	spec osMixSpec
	cfgs []vmos.Config // per VM, target VM
	// The first Build of each image assembles it; vmos memoizes the
	// rest, so a round's set-up pays only the memo check.
	coldBuild time.Duration
}

func newOSMix(o options) (rounder, error) {
	primeMemory(osMixMemBytes)
	w := &osMix{spec: genOSMix(o.seed, o.size)}
	for _, v := range w.spec.VMs {
		mix := workload.Mix(v.EditIters, v.Txns, v.DiskBlocks)
		procs := make([]vmos.Process, len(mix))
		for i, p := range v.Order {
			procs[i] = mix[p]
		}
		w.cfgs = append(w.cfgs, vmos.Config{Target: vmos.TargetVM, Processes: procs, Preempt: true})
	}
	t0 := time.Now()
	for _, c := range w.cfgs {
		if _, err := vmos.Build(c); err != nil {
			return nil, fmt.Errorf("os-mix: building image: %w", err)
		}
	}
	w.coldBuild = time.Since(t0)
	return w, nil
}

// expectedMarks is what a generated mix must print: one '.' per
// Edit iteration and one '*' per TP transaction, nothing else.
func (v osMixVM) expectedMarks() (dots, stars int) { return 2 * v.EditIters, 2 * v.Txns }

func (w *osMix) round(tr *tracer, la *layerAcc) (roundResult, error) {
	var r roundResult
	root := tr.id()
	t0 := time.Now()
	setupID := tr.id()

	// Set-up: images, monitor, four booted guests.
	var ims []*vmos.Image
	var err error
	build := tr.timed(setupID, "os-mix", "vmos.build", func() {
		for _, c := range w.cfgs {
			var im *vmos.Image
			if im, err = vmos.Build(c); err != nil {
				return
			}
			ims = append(ims, im)
		}
	})
	if err != nil {
		return r, err
	}
	var opts []core.Option
	var rec *trace.Recorder
	if la != nil {
		rec = trace.NewRecorder(64)
		opts = append(opts, core.WithRecorder(rec))
	}
	var k *core.VMM
	newT := tr.timed(setupID, "os-mix", "core.new", func() {
		k = core.New(osMixMemBytes, core.Config{ShadowCacheSlots: 4}, opts...)
	})
	defer k.Release()
	vms := make([]*core.VM, len(ims))
	for i, im := range ims {
		d := tr.timed(setupID, fmt.Sprintf("vm%d", i), "vmos.boot", func() {
			vms[i], err = vmos.BootVM(k, im, 64)
		})
		if err != nil {
			return r, fmt.Errorf("os-mix: booting vm%d: %w", i, err)
		}
		seedDisk(vms[i].Disk().Image())
		la.sample("vmos.boot_us", float64(d.Microseconds()))
	}
	t1 := time.Now()
	r.setup = t1.Sub(t0)
	tr.add(setupID, root, "os-mix", "setup", t0, t1)
	la.sample("vmos.build_ms", float64(build.Microseconds())/1000)
	la.sample("core.new_ms", float64(newT.Microseconds())/1000)

	// Run phase: quanta until every VM has halted. A quantum's latency
	// is its thread CPU time: the serial engine runs it on this thread
	// alone, and unlike wall time that leaves out the stretches the
	// hypervisor stole, which otherwise make every round's slowest
	// quantum several times its cost.
	runID := tr.id()
	var steps uint64
	runtime.LockOSThread()
	for !k.CPU.Halted && steps < osMixMaxSteps {
		q0, c0 := time.Now(), threadCPU()
		steps += k.Run(osMixQuantum)
		q1, c1 := time.Now(), threadCPU()
		r.ops = append(r.ops, float64((c1-c0).Nanoseconds())/1e3)
		tr.add(0, runID, "os-mix", "core.run", q0, q1)
	}
	runtime.UnlockOSThread()
	r.opsCPU = true
	t2 := time.Now()
	r.run = t2.Sub(t1)
	tr.add(runID, root, "os-mix", "run", t1, t2)
	r.instrs = k.CPU.Stats.Instructions
	r.cycles = k.CPU.Cycles

	// Checks: clean halt and exactly the marks the mix must print.
	for i, vm := range vms {
		r.attempted++
		v := w.spec.VMs[i]
		dots, stars := v.expectedMarks()
		out := vm.ConsoleOutput()
		if h, msg := vm.Halted(); !h || msg != haltVMKernel {
			r.failures = append(r.failures, fmt.Sprintf("os-mix vm%d: halted=%t %q", i, h, msg))
		} else if strings.Count(out, ".") != dots || strings.Count(out, "*") != stars || len(out) != dots+stars {
			r.failures = append(r.failures, fmt.Sprintf("os-mix vm%d: console %d bytes, want %d '.' and %d '*'", i, len(out), dots, stars))
		} else {
			r.lifecycles++
		}
	}

	if la != nil {
		w.layers(k, vms, rec, la)
		if err := w.bare(tr, root, la); err != nil {
			return r, err
		}
	}
	tr.add(root, 0, "os-mix", "round", t0, time.Now())
	return r, nil
}

// layers reads the machine's public counters after a traced round.
func (w *osMix) layers(k *core.VMM, vms []*core.VM, rec *trace.Recorder, la *layerAcc) {
	c := trace.Capture(k.CPU)
	m := trace.Capture(k.CPU.MMU)
	la.count("cpu.instructions", float64(c.Get("instructions")))
	la.count("cpu.cycles", float64(c.Get("cycles")))
	la.count("cpu.decode_hits", float64(c.Get("decode_hits")))
	la.count("cpu.decode_misses", float64(c.Get("decode_misses")))
	la.count("cpu.decode_invalidations", float64(c.Get("decode_invalidations")))
	la.count("cpu.sb_steps", float64(c.Get("sb_steps")))
	la.count("cpu.sb_enters", float64(c.Get("sb_enters")))
	la.count("mmu.translations", float64(m.Get("translations")))
	la.count("mmu.tlb_misses", float64(m.Get("tlb_misses")))
	la.count("core.world_switches", float64(trace.Capture(k).Get("world_switches")))
	la.count("core.vmm_cycles", float64(k.VMMCycles()))
	addVMCounters(la, vms)
	addRecorder(la, rec)
	la.sample("vmos.cold_build_ms", float64(w.coldBuild.Microseconds())/1000)
	la.sample("core.carved_pages", float64(k.CarvedPages()))
}

// bare runs the same generated mixes on the bare standard VAX: the
// baseline for the paper's VM-vs-bare ratio, in simulated cycles and
// in host time (measure divides the untraced VM run time by it).
func (w *osMix) bare(tr *tracer, root int64, la *layerAcc) error {
	bareID := tr.id()
	t0 := time.Now()
	for i, c := range w.cfgs {
		c.Target = vmos.TargetBare
		im, err := vmos.Build(c)
		if err != nil {
			return fmt.Errorf("os-mix: building bare image: %w", err)
		}
		ma, err := vmos.BootBare(im, cpu.StandardVAX, 64)
		if err != nil {
			return fmt.Errorf("os-mix: booting bare machine: %w", err)
		}
		seedDisk(ma.Disk.Image())
		var ok bool
		d := tr.timed(bareID, fmt.Sprintf("bare%d", i), "bare.run", func() { ok = ma.Run(osMixMaxSteps) })
		if !ok {
			return fmt.Errorf("os-mix: bare mix %d did not finish", i)
		}
		la.count("bare.host_ns", float64(d.Nanoseconds()))
		la.count("bare.cycles", float64(ma.CPU.Cycles))
		ma.Release()
	}
	tr.add(bareID, root, "os-mix", "bare", t0, time.Now())
	la.vals["core.sim_vm_efficiency"] = ratio(la.sums["bare.cycles"], la.sums["cpu.cycles"])
	return nil
}

// seedDisk fills a disk image with recognizable record data, as the
// experiment harness does for the same mix.
func seedDisk(img []byte) {
	for i := range img {
		img[i] = byte(i)
	}
}

// addVMCounters sums the per-VM counters every workload reports.
func addVMCounters(la *layerAcc, vms []*core.VM) {
	for _, vm := range vms {
		s := trace.Capture(vm)
		la.count("core.vm_traps", float64(s.Get("vm_traps")))
		la.count("core.shadow_fills", float64(s.Get("shadow_fills")))
		la.count("core.shadow_cache_hits", float64(s.Get("cache_hits")))
		la.count("core.shadow_cache_misses", float64(s.Get("cache_misses")))
		la.count("core.kcalls", float64(s.Get("kcalls")))
		la.count("core.cow_breaks", float64(s.Get("cow_breaks")))
	}
}

// addRecorder folds the flight recorder's simulated-cycle latencies
// (exact sums and counts) into the accumulator and returns this
// round's sample count per latency path.
func addRecorder(la *layerAcc, rec *trace.Recorder) map[string]float64 {
	rec.Sync()
	names := map[trace.Lat]string{
		trace.LatTrap: "trap", trace.LatShadowFill: "shadow_fill",
		trace.LatKCall: "kcall", trace.LatCowBreak: "cow_break",
	}
	counts := map[string]float64{}
	for _, v := range rec.VMs() {
		for l, n := range names {
			h := v.Hist(l)
			la.count("core."+n+"_cycles", float64(h.Sum))
			la.count("core."+n+"_cycles_n", float64(h.Count))
			counts[n] += float64(h.Count)
		}
	}
	return counts
}
