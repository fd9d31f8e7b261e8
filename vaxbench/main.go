// Command vaxbench is the repository's benchmark: three seeded
// workloads driven through the public APIs of internal/vmos,
// internal/core, internal/fleet and internal/monitor.
//
//	vaxbench --workload os-mix|fleet-run|fleet-api --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) repeats the workload's round — set-up,
// measured phase, correctness checks, tear-down — for S seconds and
// prints the end-to-end metrics. A traced run (--trace 1) alternates
// untraced and traced rounds, records spans and layer counters in the
// traced ones, writes the spans out, and prints the per-layer
// metrics. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any failed
// check makes the command exit 1. See README.md for the definitions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options configure one benchmark run.
type options struct {
	seed  int64
	dur   time.Duration
	trace bool
	size  size
}

// roundResult is one round's measurements and checks.
type roundResult struct {
	setup      time.Duration
	run        time.Duration // the measured phase
	instrs     uint64        // guest instructions retired in it
	cycles     uint64        // simulated cycles charged in it
	lifecycles int           // VM lifecycles completed in it
	ops        []float64     // per-operation latencies, µs
	attempted  int           // operations that must succeed
	failures   []string      // one entry per failed operation or check
	opsCPU     bool          // ops are thread CPU time, which excludes steal
	speed      float64       // host slowdown around the round, by the probe (see hostspeed.go)
	steal      float64       // share of the round's busy CPU time the hypervisor stole
}

// rounder is one workload instance: it runs rounds on demand. tr and
// la are nil in untraced rounds.
type rounder interface {
	round(tr *tracer, la *layerAcc) (roundResult, error)
}

var workloads = map[string]func(options) (rounder, error){
	"os-mix":    newOSMix,
	"fleet-run": newFleetRun,
	"fleet-api": newFleetAPI,
}

// report is a finished run.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	raw               map[string]float64 // end-to-end host times before normalization
	probeNs           float64            // median host-speed probe slice
	steal             float64            // median stolen share of a round's CPU time
	rounds            int                // untraced rounds behind the end-to-end medians
	samples           map[string]int     // sample count beside each percentile
	spans             []span
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vaxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: os-mix, fleet-run or fleet-api")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input generator seed (confirm claims on the held-out seed %d too)", heldOutSeed))
	seconds := fs.Float64("seconds", 10, "measured duration in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spanPath := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "vaxbench: need --workload %s, --seconds >= 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1, size: full}
	fmt.Fprintln(stdout, fingerprint(*name, o))

	rep, err := measure(o, mk)
	if err != nil {
		fmt.Fprintln(stderr, "vaxbench:", err)
		return 1
	}
	if o.trace {
		path := *spanPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", *name+".json")
		}
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(stderr, "vaxbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans), path)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stdout, "FAIL:", f)
	}
	emit(stdout, rep, o.trace)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// primeMemory allocates a monitor's backing store once and hands it to
// the memory pool before the workload allocates anything else, so the
// buffer every round reuses comes from address space Go has never
// handed out and needs no zeroing. Otherwise whether the runtime zeroes
// it — making all of it resident — depends on where earlier garbage
// happened to be freed, and peak RSS would flip between two values from
// run to run.
func primeMemory(memBytes uint32) { core.New(memBytes, core.Config{}).Release() }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// measure runs rounds for o.dur and derives the metrics: end-to-end
// from untraced rounds only, per-layer from traced ones.
func measure(o options, mk func(options) (rounder, error)) (*report, error) {
	w, err := mk(o)
	if err != nil {
		return nil, err
	}
	// The first rounds of a process run on cold memory and caches:
	// on fleet-run their clones' p95 is twice that of later rounds.
	// They are checked but not measured.
	const warmup = 2
	minRounds := warmup + 3
	if o.trace {
		minRounds = warmup + 4 // at least two of each kind
	}
	var tr *tracer
	var la *layerAcc
	if o.trace {
		tr, la = newTracer(), newLayerAcc()
	}
	var plain, traced []roundResult
	rep := &report{samples: map[string]int{}}
	deadline := time.Now().Add(o.dur)
	// The host is probed before the first round and after every round;
	// a round's speed is the mean of the probes on either side, and
	// /proc/stat gives the CPU time stolen from it.
	probes := []float64{probeHost()}
	var steals []float64
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		// Every round starts from a collected heap, so garbage from
		// earlier rounds neither lands in this one's timings nor
		// decides the resident high-water mark.
		runtime.GC()
		on := o.trace && i >= warmup && (i-warmup)%2 == 1
		var r roundResult
		busy0, steal0 := cpuTicks()
		if on {
			la.rounds++
			r, err = w.round(tr, la)
		} else {
			r, err = w.round(nil, nil)
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		busy1, steal1 := cpuTicks()
		r.steal = stealShare(busy0, steal0, busy1, steal1)
		probes = append(probes, probeHost())
		r.speed = (probes[i] + probes[i+1]) / (2 * probeRefNs)
		rep.attempted += r.attempted
		rep.failed += len(r.failures)
		rep.failures = append(rep.failures, r.failures...)
		switch {
		case i < warmup:
		case on:
			traced = append(traced, r)
		default:
			plain = append(plain, r)
			steals = append(steals, r.steal)
		}
	}
	rep.probeNs = median(probes)
	rep.steal = median(steals)
	if !o.trace {
		// Read before the analysis below, whose sample copies would
		// otherwise count toward the workload's peak.
		rss := peakRSSMB()
		rep.metrics = endToEndMetrics(plain, rep)
		rep.metrics["peak_rss_mb"] = rss
		return rep, nil
	}
	// Lifecycles per second: on os-mix and fleet-run every round retires
	// the same instructions, so this is also the guest-MIPS ratio.
	plainTot, tracedTot := total(plain), total(traced)
	la.vals["trace.overhead"] = ratio(tracedTot.lifecyclesPerSec(), plainTot.lifecyclesPerSec())
	if bare := la.sums["bare.host_ns"]; bare > 0 {
		perRound := float64(plainTot.run.Nanoseconds()) / float64(len(plain))
		la.vals["core.vm_host_ratio"] = ratio(perRound, bare/float64(la.rounds))
	}
	la.vals["op_fail_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))
	rep.spans = tr.spans
	rep.metrics = la.finish(tr.spans)
	for _, s := range sampledLayers {
		rep.samples[s.name+".p50"] = len(la.samples[s.name])
		rep.samples[s.name+".p99"] = len(la.samples[s.name])
	}
	return rep, nil
}

// total sums rounds: their measured phases, work and operations.
func total(rs []roundResult) roundResult {
	var t roundResult
	for _, r := range rs {
		t.run += r.run
		t.instrs += r.instrs
		t.cycles += r.cycles
		t.lifecycles += r.lifecycles
		t.ops = append(t.ops, r.ops...)
	}
	return t
}

func (r roundResult) lifecyclesPerSec() float64 { return ratio(float64(r.lifecycles), r.run.Seconds()) }

// endToEndMetrics derives the end-to-end metrics from untraced rounds.
// Every host time is divided by its round's slowdown (hostspeed.go):
// the probe's, scaled by 1 ÷ (1 − stolen share); operations measured
// in thread CPU time already exclude steal and take the probe's alone.
// Each metric is a median over rounds, so neither a slow stretch
// of the host nor one disturbed round moves it. op_p50_us is the exact
// median of every operation; op_p99_us is the median over rounds of
// each round's exact p99, because a host hiccup that slows a few rounds
// fills the pooled tail: pooled, fleet-run's p99 read 6.6–9.7 µs across
// eight seeds, the median round's 5.6–5.9 µs. The same figures without
// the division go to rep.raw. measure adds peak_rss_mb.
func endToEndMetrics(rs []roundResult, rep *report) map[string]float64 {
	derive := func(norm bool) map[string]float64 {
		var setup, mips, lcs, ops, p99 []float64
		for _, r := range rs {
			f, fop := 1.0, 1.0
			if norm {
				f = r.speed / (1 - r.steal)
				fop = f
				if r.opsCPU {
					fop = r.speed
				}
			}
			refRun := r.run.Seconds() / f
			setup = append(setup, r.setup.Seconds()/f)
			mips = append(mips, ratio(float64(r.instrs), refRun)/1e6)
			lcs = append(lcs, ratio(float64(r.lifecycles), refRun))
			n := len(ops)
			for _, us := range r.ops {
				ops = append(ops, us/fop)
			}
			p99 = append(p99, quantile(ops[n:], 0.99))
		}
		return map[string]float64{
			"setup_s":          median(setup),
			"guest_mips":       median(mips),
			"lifecycles_per_s": median(lcs),
			"op_p50_us":        quantile(ops, 0.50),
			"op_p99_us":        median(p99),
		}
	}
	m := derive(true)
	rep.raw = derive(false)
	t := total(rs)
	rep.rounds = len(rs)
	rep.samples["op_p50_us"] = len(t.ops)
	rep.samples["op_p99_us"] = len(t.ops)
	m["sim_cpi"] = ratio(float64(t.cycles), float64(t.instrs))
	return m
}

// emit prints one readable line per metric, then the JSON result line.
func emit(w io.Writer, rep *report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range defs {
		v := rep.metrics[d.Name]
		metrics[d.Name] = val{v, d.Unit}
		line := fmt.Sprintf("%-40s %14.6g %s", d.Name, v, d.Unit)
		if n, ok := rep.samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	if !traced { // a traced run lists op_fail_ratio with the layers
		fmt.Fprintf(w, "%-40s %14.6g ratio  (%d failed / %d attempted)\n", "op_fail_ratio",
			ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
		fmt.Fprintf(w, "host probe: median slice %.0f ns (reference %d ns), median steal %.3f, over %d rounds; before normalization:",
			rep.probeNs, probeRefNs, rep.steal, rep.rounds)
		for _, d := range defs {
			if v, ok := rep.raw[d.Name]; ok {
				fmt.Fprintf(w, " %s=%.6g", d.Name, v)
			}
		}
		fmt.Fprintln(w)
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		panic(err) // every value is a finite float: a bug if this fails
	}
	fmt.Fprintln(w, string(out))
}

// buildCommit is the git commit the binary was built from, set by
// run.sh at link time.
var buildCommit = "unknown"

// fingerprint identifies the host and inputs, so a figure is only
// ever compared with one taken on the same machine.
func fingerprint(workload string, o options) string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%g trace=%t",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildCommit,
		workload, o.seed, o.dur.Seconds(), o.trace)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident high-water mark (VmHWM),
// falling back to getrusage where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
