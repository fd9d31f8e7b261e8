package main

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host-speed probe. The benchmark runs on shared hosts whose speed
// drifts by ±20% over seconds to minutes (other tenants on sibling
// hardware threads and caches), far more than the changes it must
// resolve. So every end-to-end host time is also measured against a
// fixed reference: between rounds the benchmark times probeKernel, a
// few milliseconds of work that does not depend on the repository's
// code, and divides each round's host times by the host's slowdown
// during that round — the probe's time around the round over
// probeRefNs. Host times are therefore reported as they would read on
// a host where one probe slice takes probeRefNs; the raw figures are
// printed beside them.
//
// The kernel mixes the two things the simulator's host time is made
// of: an opcode-dispatch loop with unpredictable branches (the
// interpreter's fetch/decode/execute switch) and independent integer
// arithmetic chains (its ALU work). It touches only a 4 KB opcode
// stream, so memory and the garbage collector do not move it.

const (
	probeSlices     = 7       // a probe is the median of this many slices
	probeDispatches = 50_000  // dispatch-loop iterations per slice
	probeALU        = 250_000 // arithmetic-loop iterations per slice

	// probeRefNs is one slice's time on the 2-vCPU Xeon host the
	// benchmark was tuned on, when quiet. It only sets the scale of
	// the normalized figures; comparisons do not depend on it.
	probeRefNs = 1_250_000
)

// probeCode is the dispatch loop's opcode stream, the same in every
// run: the probe must do identical work whatever the seed.
var probeCode = func() []byte {
	rng := rand.New(rand.NewSource(0x5eed))
	code := make([]byte, 4096)
	for i := range code {
		code[i] = byte(rng.Intn(8))
	}
	return code
}()

// probeSink keeps the kernel's results live.
var probeSink uint64

// probeKernel is one slice of probe work.
func probeKernel() {
	var regs [8]uint64
	regs[0] = 1
	pc := 0
	for i := 0; i < probeDispatches; i++ {
		op := probeCode[pc]
		pc = (pc + 1) & (len(probeCode) - 1)
		switch op {
		case 0:
			regs[1] += regs[0]
		case 1:
			regs[2] ^= regs[1] << 3
		case 2:
			regs[3] = regs[2] + regs[1]
		case 3:
			regs[0] = regs[3] | 1
		case 4:
			if regs[1]&1 == 0 {
				regs[4]++
			}
		case 5:
			regs[5] -= regs[4]
		case 6:
			regs[6] = regs[5] * 3
		case 7:
			regs[7] += regs[6] >> 2
		}
	}
	a, b, c, d := regs[7], uint64(2), uint64(3), uint64(4)
	for i := 0; i < probeALU; i++ {
		a ^= a << 13
		b ^= b >> 7
		c ^= c << 17
		d += a ^ b
		a += c
		b ^= d
		c += 0x9e3779b97f4a7c15
	}
	probeSink += a + b + c + d
}

// probeHost times probeSlices slices and returns the median slice
// time in nanoseconds; the median drops a slice that was preempted.
func probeHost() float64 {
	ns := make([]float64, probeSlices)
	for i := range ns {
		t0 := time.Now()
		probeKernel()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}

// The probe's median drops slices in which the hypervisor ran another
// guest on this machine's virtual CPU, so it measures the host's speed
// while the benchmark runs, not the time it is not run at all (steal).
// On a shared host that time comes in stretches: in one, the probe
// slowed by 10% while os-mix's slowest quanta read 35–45 ms instead of
// 11. The kernel counts steal per CPU in /proc/stat; a round's share of
// busy CPU time that was stolen slows it by 1 ÷ (1 − share), folded
// into its slowdown.

// cpuTicks is the aggregate "cpu" line of /proc/stat: busy (everything
// but idle and iowait, steal included) and stolen clock ticks. Both are
// zero where /proc/stat cannot be read, which disables the correction.
func cpuTicks() (busy, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq
// steal ...".
func parseCPULine(line string) (busy, steal uint64) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return 0, 0
		}
		v[i] = n
	}
	return v[0] + v[1] + v[2] + v[5] + v[6] + v[7], v[7]
}

// stealShare is the share of busy ticks between two cpuTicks readings
// that was stolen, capped so a round is never scaled more than 10×.
func stealShare(busy0, steal0, busy1, steal1 uint64) float64 {
	if busy1 <= busy0 || steal1 < steal0 {
		return 0
	}
	return min(0.9, float64(steal1-steal0)/float64(busy1-busy0))
}

// threadCPU is the calling thread's CPU time (user + system). With the
// kernel's paravirtual steal accounting it leaves out time the
// hypervisor ran something else, so it times a serial operation without
// the steal that wall time includes; the caller must hold its thread
// (runtime.LockOSThread). It reads 0 where the call fails.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
