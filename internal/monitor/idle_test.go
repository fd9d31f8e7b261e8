package monitor

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// TestIdleSkipCounters: an idle stamp fleet jumps its WAIT stretches
// and says so on every observability surface; a busy guest that never
// WAITs reports no skips.
func TestIdleSkipCounters(t *testing.T) {
	m, mgr := newFleetMonitor(t)
	for i := 0; i < 3; i++ {
		if _, err := mgr.CloneVM(0, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		mgr.DriveOnce()
	}
	cpuCounters := trace.Capture(m.CPU).Counters
	skips, skipped := cpuCounters["idle_skips"], cpuCounters["idle_skipped_steps"]
	if skips == 0 || skipped == 0 {
		t.Fatalf("idle fleet: idle_skips=%d idle_skipped_steps=%d, want both > 0", skips, skipped)
	}

	var mu sync.Mutex
	srv := newTestServer(t, m, &mu)
	_, prom := srv.do(t, "GET", "/metrics", "")
	for _, name := range []string{"idle_skips", "idle_skipped_steps"} {
		line := fmt.Sprintf("vax_counter{source=%q,name=%q} %d", "cpu", name, cpuCounters[name])
		if !strings.Contains(prom, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if _, js := srv.do(t, "GET", "/metrics.json", ""); !strings.Contains(js, `"idle_skipped_steps"`) {
		t.Errorf("/metrics.json lacks idle_skipped_steps")
	}
	if out, _ := m.Execute("stat"); !strings.Contains(out, fmt.Sprintf("idle: skips %d  skipped-steps %d", skips, skipped)) {
		t.Errorf("stat lacks the idle line:\n%s", out)
	}

	k := core.New(8<<20, core.Config{})
	defer k.Release()
	busy := fleet.NewManager(k, fleet.Config{})
	if _, err := busy.Create(fleet.Spec{Workload: "compute"}); err != nil {
		t.Fatal(err)
	}
	for busy.DriveOnce() {
	}
	if s := k.CPU.Stats; s.Instructions == 0 || s.IdleSkips != 0 || s.IdleSkippedSteps != 0 {
		t.Errorf("busy guest: instructions=%d idle_skips=%d idle_skipped_steps=%d, want skips 0",
			s.Instructions, s.IdleSkips, s.IdleSkippedSteps)
	}
}
