package repro

import (
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// TestExperimentAllocParity pins the end-to-end allocation counts of
// the serial benchmark experiments. These are the numbers ci.sh's
// bench diff gates on (allocs_per_op in BENCH_*.json); asserting them
// here catches an accidental allocation on a serial path — a lazily
// grown allocator cache, a closure that escapes — at test time rather
// than at the next benchmark refresh. The parallel engine is allowed
// to allocate (worker shards, queues, pprof labels); the serial paths
// these experiments drive are not.
func TestExperimentAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	if testing.Short() {
		t.Skip("E9 runs the cost-sensitivity sweep (~60ms per run)")
	}
	// A GC pass between the warm-up and measured runs empties the
	// sync.Pool-backed allocator caches and shows up as a spurious +1 in
	// any experiment; hold GC off so the pins are deterministic.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Go maps hash with a per-map random seed, so an unlucky seed in the
	// assembler's symbol tables allocates an extra overflow bucket or
	// two. The noise is strictly additive: the minimum over a few
	// attempts is the deterministic count the pin asserts.
	minAllocs := func(want float64, f func()) float64 {
		got := testing.AllocsPerRun(1, f)
		for attempt := 0; got > want && attempt < 4; attempt++ {
			if g := testing.AllocsPerRun(1, f); g < got {
				got = g
			}
		}
		return got
	}
	// The counts dropped from the 2026-08-05 baseline (256/295/574) by
	// exactly one per VM created: the per-VM wake channel became two
	// padded atomics when the M:N scheduler replaced per-VM goroutines.
	// They then dropped by exactly one per core.New (E2 builds 4
	// monitors, E3 5, E9 9) when the interval clock moved into the VMM
	// by value. They dropped again (248/285/556 → 229/265/514) when the
	// bitmap frame allocator replaced the exact-size free-run pool: a
	// halting VM's shadow runs no longer grow a map entry and slice per
	// run size (the parent with freeRun made a no-op counts the same).
	for _, tc := range []struct {
		id   string
		want float64
	}{
		{"E2", 229},
		{"E3", 265},
		{"E9", 514},
	} {
		spec, ok := exp.ByID(tc.id)
		if !ok {
			t.Fatalf("unknown experiment %s", tc.id)
		}
		got := minAllocs(tc.want, func() {
			if _, err := spec.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s allocates %.0f times per run, want exactly %.0f", tc.id, got, tc.want)
		}
	}
}

// TestSupervisorAllocParity pins the cost of *arming* the recovery
// supervisor: a healthy serial machine run with Recover enabled (but no
// faults and no checkpoint interval) must allocate exactly as many
// times as the same run with the supervisor off. The halt-loop in Run,
// the pendingRecover checks, and the checkpoint-policy gate are all on
// hot paths; this catches any of them growing an allocation.
func TestSupervisorAllocParity(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(cfg core.Config) func() {
		return func() {
			im, err := vmos.Build(vmos.Config{Target: vmos.TargetVM, Processes: workload.Mix(6, 3, 8)})
			if err != nil {
				t.Fatal(err)
			}
			cfg.FillBatch = 1
			k := core.New(16<<20, cfg)
			if _, err := vmos.BootVM(k, im, 64); err != nil {
				t.Fatal(err)
			}
			k.Run(0)
			k.Release()
		}
	}
	// Min-of-N for the same reason as TestExperimentAllocParity: map
	// hash-seed noise is additive, the minimum is the true count.
	min4 := func(f func()) float64 {
		got := testing.AllocsPerRun(1, f)
		for attempt := 0; attempt < 3; attempt++ {
			if g := testing.AllocsPerRun(1, f); g < got {
				got = g
			}
		}
		return got
	}
	base := min4(run(core.Config{}))
	armed := min4(run(core.Config{Recover: true, RecoverBudget: 4}))
	if armed != base {
		t.Errorf("armed supervisor allocates %.0f times per run, plain machine %.0f; arming must be free", armed, base)
	}
}
