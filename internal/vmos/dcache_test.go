package vmos_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vmos"
	"repro/internal/workload"
)

// TestMixDecodeHitRatio runs the Section 7.3 mix in four MiniOS VMs on
// the serial engine (preemption on, four shadow-cache slots, the
// translation tier off) and bounds the decode cache's effectiveness.
// MiniOS keeps its kernel data cells on its first code page, so every
// clock tick and system call stores next to cached kernel code; only
// byte-exact invalidation keeps that code cached. The serial engine
// makes the counters exact, so the bounds cannot flake.
func TestMixDecodeHitRatio(t *testing.T) {
	k := core.New(16<<20, core.Config{ShadowCacheSlots: 4})
	defer k.Release()
	var vms []*core.VM
	for i := 0; i < 4; i++ {
		im := buildImage(t, vmos.Config{
			Target:    vmos.TargetVM,
			Processes: workload.Mix(60+i, 30+i, 8+4*i),
			Preempt:   true,
		})
		vm, err := vmos.BootVM(k, im, 64)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	k.Run(200_000_000)
	for i, vm := range vms {
		if h, msg := vm.Halted(); !h || msg != "HALT executed in VM kernel mode" {
			t.Fatalf("vm%d: halted=%t %q", i, h, msg)
		}
	}
	s := k.CPU.Stats
	ratio := float64(s.DecodeHits) / float64(s.DecodeHits+s.DecodeMisses)
	perKinstr := float64(s.DecodeInvalidations) / (float64(s.Instructions) / 1000)
	t.Logf("%d instructions: decode hit ratio %.4f, %.3f invalidations per kinstr",
		s.Instructions, ratio, perKinstr)
	if ratio < 0.97 {
		t.Errorf("decode hit ratio %.4f, want >= 0.97", ratio)
	}
	if perKinstr > 2 {
		t.Errorf("%.3f decode invalidations per kinstr, want <= 2", perKinstr)
	}
}
