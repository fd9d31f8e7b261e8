package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.50, 50}, {0.99, 99}, {1, 100},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile reordered its input")
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	// A tail far from any power of two reads as itself, not as the
	// ceiling of its bucket.
	tail := append(make([]float64, 98), 1100, 1100)
	if got := quantile(tail, 0.99); got != 1100 {
		t.Errorf("p99 = %v, want 1100", got)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, sz := range []size{full, tiny} {
		if a, b := genOSMix(42, sz), genOSMix(42, sz); !reflect.DeepEqual(a, b) {
			t.Errorf("os-mix spec differs for the same seed: %+v vs %+v", a, b)
		}
		if a, b := genFleetRun(42, sz), genFleetRun(42, sz); !reflect.DeepEqual(a, b) {
			t.Errorf("fleet-run spec differs for the same seed")
		}
		a, b := genFleetAPI(42, sz), genFleetAPI(42, sz)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("fleet-api spec differs for the same seed")
		}
		for c := -1; c < apiClients; c++ {
			sa, sb := a.script(c), b.script(c)
			for j := 0; j < 100; j++ {
				if x, y := sa(), sb(); x != y {
					t.Fatalf("client %d lifecycle %d differs: %+v vs %+v", c, j, x, y)
				}
			}
		}
	}
	if reflect.DeepEqual(genOSMix(1, full), genOSMix(2, full)) {
		t.Error("os-mix spec ignores the seed")
	}
	if reflect.DeepEqual(genFleetRun(1, full), genFleetRun(2, full)) {
		t.Error("fleet-run spec ignores the seed")
	}
	if reflect.DeepEqual(genFleetAPI(1, full), genFleetAPI(2, full)) {
		t.Error("fleet-api spec ignores the seed")
	}
}

func TestFleetRunPlacement(t *testing.T) {
	spec := genFleetRun(3, full)
	if spec.Compute[0] {
		t.Fatal("slot 0 must hold the idle template")
	}
	computes := 0
	for _, c := range spec.Compute {
		if c {
			computes++
		}
	}
	if want := (len(spec.Compute) + fleetRunHandful - 1) / fleetRunHandful; computes != want {
		t.Errorf("%d compute guests, want one per handful (%d)", computes, want)
	}
}

func TestComputeResultClosedForm(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 480_000} {
		var sum uint32
		for i := 1; i <= n; i++ {
			sum += uint32(i)
		}
		if got := computeResult(n); got != sum {
			t.Errorf("computeResult(%d) = %d, want %d", n, got, sum)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.run", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "core.run", Start: 40, End: 70}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "http.clone", Start: 20, End: 30},
		{ID: 5, Parent: 4, Name: "monitor.handler", Start: 22, End: 28},
	}
	got := selfTime(spans)
	want := map[string]time.Duration{
		"bench":           40,      // 100 minus the 10..70 its children cover
		"core.run":        30 + 30, // 40-10 and 30-0
		"http.transport":  4,
		"monitor.handler": 6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}

// runTiny runs a workload at test size, untraced or traced, and fails
// the test on any error or failed check.
func runTiny(t *testing.T, name string, traced bool) *report {
	t.Helper()
	rep, err := measure(options{seed: defaultSeed, trace: traced, size: tiny}, workloads[name])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, rep.failed, rep.attempted, rep.failures)
	}
	return rep
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			rep := runTiny(t, name, false)
			for _, d := range endToEnd {
				v, ok := rep.metrics[d.Name]
				if !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v (present %t), want > 0", d.Name, v, ok)
				}
			}
			rep = runTiny(t, name, true)
			for _, d := range perLayer {
				if _, ok := rep.metrics[d.Name]; !ok {
					t.Errorf("per-layer %s missing", d.Name)
				}
			}
			if len(rep.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// The layers each workload claims to load, and to leave idle, are
// visible in its counters.
func TestWorkloadsSeparateLayers(t *testing.T) {
	osMix := runTiny(t, "os-mix", true).metrics
	fleetRun := runTiny(t, "fleet-run", true).metrics
	fleetAPI := runTiny(t, "fleet-api", true).metrics
	if v := osMix["cpu.sb_step_share"]; v != 0 {
		t.Errorf("os-mix cpu.sb_step_share = %v, want 0 (tier off)", v)
	}
	if v := fleetRun["cpu.sb_step_share"]; v <= 0.9 {
		t.Errorf("fleet-run cpu.sb_step_share = %v, want > 0.9", v)
	}
	if a, b := osMix["core.vm_traps_per_kinstr"], fleetRun["core.vm_traps_per_kinstr"]; a < 10*b {
		t.Errorf("vm traps per kinstr: os-mix %v is not 10x fleet-run %v", a, b)
	}
	for _, s := range sampledLayers {
		if !strings.HasPrefix(s.name, "monitor.") {
			continue
		}
		if osMix[s.name+".n"] != 0 || fleetRun[s.name+".n"] != 0 {
			t.Errorf("%s sampled outside fleet-api", s.name)
		}
		if s.name != "monitor.restore_us" && fleetAPI[s.name+".n"] == 0 {
			t.Errorf("%s not sampled on fleet-api", s.name)
		}
	}
	if v := osMix["core.sim_vm_efficiency"]; v < 0.4 || v > 0.6 {
		t.Errorf("os-mix core.sim_vm_efficiency = %v, want the paper's neighbourhood (0.4-0.6)", v)
	}
}

// The deterministic path repeats exactly: the same seed gives the same
// simulated counters.
func TestSameSeedSameSimulatedCounters(t *testing.T) {
	a, b := runTiny(t, "os-mix", true).metrics, runTiny(t, "os-mix", true).metrics
	for _, name := range []string{"cpu.instructions", "core.vm_traps", "core.shadow_fills",
		"core.kcalls", "core.world_switches", "core.sim_vm_efficiency", "mmu.tlb_misses"} {
		if a[name] != b[name] {
			t.Errorf("%s: %v then %v", name, a[name], b[name])
		}
	}
	x, y := runTiny(t, "os-mix", false).metrics, runTiny(t, "os-mix", false).metrics
	if x["sim_cpi"] != y["sim_cpi"] {
		t.Errorf("os-mix sim_cpi: %v then %v", x["sim_cpi"], y["sim_cpi"])
	}
}

// A wrong console is caught: the check compares against what the
// generated mix must print.
func TestOSMixCheckCatchesWrongConsole(t *testing.T) {
	w, err := newOSMix(options{seed: defaultSeed, size: tiny})
	if err != nil {
		t.Fatal(err)
	}
	w.(*osMix).spec.VMs[2].Txns++ // expect one mark more than the guest prints
	r, err := w.round(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.failures) != 1 || r.attempted != 4 {
		t.Errorf("got %d failures of %d attempted, want 1 of 4: %v", len(r.failures), r.attempted, r.failures)
	}
}

func TestResultLine(t *testing.T) {
	var buf bytes.Buffer
	emit(&buf, &report{attempted: 5, failed: 1, metrics: map[string]float64{"setup_s": 0.5}}, false)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if len(keys) != 4 || string(got["correct"]) != "false" || string(got["attempted"]) != "5" || string(got["failed"]) != "1" {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"].Value != 0.5 || metrics["setup_s"].Unit != "s" {
		t.Errorf("metrics %v", metrics)
	}
}

// A round run while the host was twice as slow reads the same as one
// run at reference speed; the raw figures keep the host's slowdown.
func TestHostTimesAreNormalizedBySlowdown(t *testing.T) {
	fast := roundResult{setup: 10 * time.Millisecond, run: time.Second, instrs: 5e6, cycles: 3e7,
		lifecycles: 4, ops: []float64{100, 200}, speed: 1}
	slow := fast // half as fast: the probe reads 1.5 and a quarter is stolen
	slow.setup, slow.run, slow.ops, slow.speed, slow.steal = 20*time.Millisecond, 2*time.Second, []float64{200, 400}, 1.5, 0.25
	rep := &report{samples: map[string]int{}}
	m := endToEndMetrics([]roundResult{fast, slow, slow}, rep)
	want := map[string]float64{"setup_s": 0.01, "guest_mips": 5, "lifecycles_per_s": 4,
		"op_p50_us": 100, "op_p99_us": 200, "sim_cpi": 6}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if rep.raw["guest_mips"] != 2.5 || rep.raw["op_p99_us"] != 400 {
		t.Errorf("raw figures %v", rep.raw)
	}
	// Operations timed in thread CPU time carry no steal.
	slow.ops, slow.opsCPU = []float64{150, 300}, true
	if m := endToEndMetrics([]roundResult{slow}, rep); m["op_p50_us"] != 100 || m["op_p99_us"] != 200 {
		t.Errorf("CPU-time ops normalized to %v, %v; want 100, 200", m["op_p50_us"], m["op_p99_us"])
	}
	if p := probeHost(); p <= 0 {
		t.Errorf("probe took %v ns", p)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "os-mix", "--trace", "2"},
		{"--workload", "os-mix", "--seconds", "-1"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, out.String())
		}
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics
// this program prints.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayer)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func TestStealShareFromProcStat(t *testing.T) {
	busy, steal := parseCPULine("cpu  100 5 20 900 3 1 4 30 0 0")
	if busy != 160 || steal != 30 {
		t.Errorf("busy %d steal %d, want 160 30", busy, steal)
	}
	if b, s := parseCPULine("cpu0 1 2 3"); b != 0 || s != 0 {
		t.Errorf("short line read as %d %d", b, s)
	}
	if got := stealShare(160, 30, 260, 55); got != 0.25 {
		t.Errorf("share %v, want 0.25", got)
	}
	if got := stealShare(0, 0, 0, 0); got != 0 {
		t.Errorf("share without /proc/stat %v, want 0", got)
	}
}
