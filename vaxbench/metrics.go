package main

// The metric catalogue. BENCHMARK.json at the repository root lists
// the same names, units and directions (a test keeps the two equal);
// an untraced run prints every end-to-end metric and a traced run
// every per-layer metric, on every workload — a layer a workload
// leaves idle reads 0.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"guest_mips", "Minstr/s", "higher", 0.25},
	{"sim_cpi", "cycles/instr", "lower", 0.06},
	{"lifecycles_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// Latency distributions reported as .p50, .p99 and .n (sample count).
var sampledLayers = []struct{ name, unit string }{
	{"core.clone_us", "us"},
	{"monitor.clone_us", "us"},
	{"monitor.snapshot_us", "us"},
	{"monitor.halt_us", "us"},
	{"monitor.destroy_us", "us"},
	{"monitor.restore_us", "us"},
	{"monitor.handler_us", "us"},
}

// Counters reported per traced round.
var countLayers = []struct{ name, unit string }{
	{"core.vm_traps", "count"},
	{"core.shadow_fills", "count"},
	{"core.shadow_cache_hits", "count"},
	{"core.shadow_cache_misses", "count"},
	{"core.world_switches", "count"},
	{"core.kcalls", "count"},
	{"mmu.translations", "count"},
	{"mmu.tlb_misses", "count"},
	{"cpu.instructions", "count"},
	{"cpu.decode_hits", "count"},
	{"cpu.decode_misses", "count"},
	{"cpu.decode_invalidations", "count"},
	{"cpu.sb_steps", "count"},
	{"cpu.sb_enters", "count"},
	{"core.sched.parks", "count"},
	{"core.sched.steals", "count"},
	{"core.sched.dispatches", "count"},
	{"core.cow_breaks", "count"},
	{"core.carved_growth_pages", "pages"},
}

// Everything else: derived ratios, medians and set values.
var valueLayers = []metricDef{
	{"vmos.build_ms", "ms", "lower", 0},
	{"vmos.cold_build_ms", "ms", "lower", 0},
	{"vmos.boot_us", "us", "lower", 0},
	{"core.new_ms", "ms", "lower", 0},
	{"core.vm_host_ratio", "ratio", "lower", 0},
	{"core.sim_vm_efficiency", "ratio", "higher", 0},
	{"core.vmm_cycle_share", "ratio", "lower", 0},
	{"core.vm_traps_per_kinstr", "1/kinstr", "lower", 0},
	{"core.shadow_cache_hit_ratio", "ratio", "higher", 0},
	{"mmu.tlb_miss_ratio", "ratio", "lower", 0},
	{"cpu.decode_hit_ratio", "ratio", "higher", 0},
	{"cpu.decode_invalidations_per_kinstr", "1/kinstr", "lower", 0},
	{"cpu.sb_step_share", "ratio", "higher", 0},
	{"cpu.sb_steps_per_enter", "steps", "higher", 0},
	{"core.sched.occupancy_permille", "permille", "higher", 0},
	{"core.carved_pages", "pages", "lower", 0},
	{"ckpt.snapshot_kb", "KB", "lower", 0},
	{"core.trap_cycles_mean", "cycles", "lower", 0},
	{"core.shadow_fill_cycles_mean", "cycles", "lower", 0},
	{"core.kcall_cycles_mean", "cycles", "lower", 0},
	{"core.cow_break_cycles_mean", "cycles", "lower", 0},
	{"trace.overhead", "ratio", "higher", 0},
	{"op_fail_ratio", "ratio", "lower", 0},
}

// perLayer is the full per-layer catalogue, in report order.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, s := range sampledLayers {
		out = append(out,
			metricDef{s.name + ".p50", s.unit, "lower", 0},
			metricDef{s.name + ".p99", s.unit, "lower", 0},
			metricDef{s.name + ".n", "count", "higher", 0})
	}
	for _, c := range countLayers {
		out = append(out, metricDef{c.name, c.unit, "lower", 0})
	}
	out = append(out, valueLayers...)
	for _, l := range selfTimeLayers {
		out = append(out, metricDef{"self_ms." + l, "ms", "lower", 0})
	}
	return out
}()

// layerAcc accumulates per-layer data over the traced rounds of a run.
type layerAcc struct {
	rounds  int
	sums    map[string]float64   // counters, summed over rounds
	samples map[string][]float64 // raw latency samples
	vals    map[string]float64   // values set directly
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sums: map[string]float64{}, samples: map[string][]float64{}, vals: map[string]float64{}}
}

// count adds to a counter. Safe on a nil accumulator (untraced round).
func (la *layerAcc) count(name string, v float64) {
	if la != nil {
		la.sums[name] += v
	}
}

// sample records one latency sample.
func (la *layerAcc) sample(name string, v float64) {
	if la != nil {
		la.samples[name] = append(la.samples[name], v)
	}
}

// finish derives every per-layer metric. Missing inputs read 0.
func (la *layerAcc) finish(spans []span) map[string]float64 {
	out := map[string]float64{}
	perRound := func(name string) float64 { return ratio(la.sums[name], float64(la.rounds)) }
	for _, s := range sampledLayers {
		xs := la.samples[s.name]
		out[s.name+".p50"] = quantile(xs, 0.50)
		out[s.name+".p99"] = quantile(xs, 0.99)
		out[s.name+".n"] = float64(len(xs))
	}
	for _, c := range countLayers {
		out[c.name] = perRound(c.name)
	}
	// A value sampled once per round (or per call) reports its median.
	for _, v := range valueLayers {
		out[v.Name] = la.vals[v.Name]
		if xs := la.samples[v.Name]; len(xs) > 0 {
			out[v.Name] = median(xs)
		}
	}
	s := la.sums
	out["core.vmm_cycle_share"] = ratio(s["core.vmm_cycles"], s["cpu.cycles"])
	out["core.vm_traps_per_kinstr"] = 1000 * ratio(s["core.vm_traps"], s["cpu.instructions"])
	out["core.shadow_cache_hit_ratio"] = ratio(s["core.shadow_cache_hits"], s["core.shadow_cache_hits"]+s["core.shadow_cache_misses"])
	out["mmu.tlb_miss_ratio"] = ratio(s["mmu.tlb_misses"], s["mmu.translations"])
	out["cpu.decode_hit_ratio"] = ratio(s["cpu.decode_hits"], s["cpu.decode_hits"]+s["cpu.decode_misses"])
	out["cpu.decode_invalidations_per_kinstr"] = 1000 * ratio(s["cpu.decode_invalidations"], s["cpu.instructions"])
	out["cpu.sb_step_share"] = ratio(s["cpu.sb_steps"], s["cpu.instructions"])
	out["cpu.sb_steps_per_enter"] = ratio(s["cpu.sb_steps"], s["cpu.sb_enters"])
	for _, lat := range []string{"trap", "shadow_fill", "kcall", "cow_break"} {
		name := "core." + lat + "_cycles"
		out[name+"_mean"] = ratio(s[name], s[name+"_n"])
	}
	self := selfTime(spans)
	for _, l := range selfTimeLayers {
		out["self_ms."+l] = ratio(float64(self[l].Microseconds())/1000, float64(la.rounds))
	}
	return out
}
