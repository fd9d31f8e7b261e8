package main

import (
	"fmt"
	"math/rand"
)

// Seeded input generators. Everything a workload feeds the system
// under test is derived here from the seed alone, so the same seed
// gives the same guests and the same request script, and therefore
// the same simulated counters on the deterministic (serial) paths.

// defaultSeed and heldOutSeed: tune against the first, confirm claims
// on the second.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// size scales a workload: full for measurement, tiny for the
// benchmark's own tests.
type size int

const (
	full size = iota
	tiny
)

// osMixVM is one MiniOS guest of os-mix: the §7.3 mix
// (workload.Mix: two Edit and two TP processes) with seed-chosen
// iteration counts, transaction counts, disk size and process order.
type osMixVM struct {
	EditIters  int
	Txns       int
	DiskBlocks int
	Order      [4]int // permutation of workload.Mix's four processes
}

type osMixSpec struct {
	VMs []osMixVM
}

func genOSMix(seed int64, sz size) osMixSpec {
	rng := rand.New(rand.NewSource(seed))
	// Counts vary by about ±1% so that seeds differ in their inputs
	// while a VM's work, and with it lifecycles_per_s and the host time
	// per instruction, stays comparable across seeds.
	editLo, editSpan, txnLo, txnSpan := 495, 11, 237, 5
	if sz == tiny {
		editLo, editSpan, txnLo, txnSpan = 4, 3, 2, 2
	}
	spec := osMixSpec{VMs: make([]osMixVM, 4)}
	for i := range spec.VMs {
		v := osMixVM{
			EditIters:  editLo + rng.Intn(editSpan),
			Txns:       txnLo + rng.Intn(txnSpan),
			DiskBlocks: 8 + rng.Intn(25),
		}
		for j, p := range rng.Perm(4) {
			v.Order[j] = p
		}
		spec.VMs[i] = v
	}
	return spec
}

// fleetRunSpec is a clone-backed fleet: slot 0 is the idle template,
// the first compute slot is the compute template, and every other
// slot is a clone of the template of its kind. Idle guests WAIT
// IdleWaits times and halt; compute guests sum 1..ComputeIters into
// their result cell and halt. The seed picks the placement and the
// compute loop length.
type fleetRunSpec struct {
	Compute      []bool // per slot: compute guest (else idle)
	ComputeIters int
	IdleWaits    int
}

// fleetRunHandful is the slot group that holds one compute guest.
const fleetRunHandful = 6

func genFleetRun(seed int64, sz size) fleetRunSpec {
	rng := rand.New(rand.NewSource(seed))
	// 512 VMs, so the first clone of each template (the one that
	// demotes its source's writable mappings, several times the cost of
	// the rest) stays well under 1% of the clones and op_p99_us is the
	// ordinary clones' tail. The loop length moves by at most 1%, so
	// the fleet's work per round, and lifecycles_per_s with it, stays
	// comparable across seeds.
	n, itersLo, itersSpan := 512, 438_000, 4_400
	if sz == tiny {
		n, itersLo, itersSpan = 12, 20_000, 10_000
	}
	// Idle guests' WAIT cycles are a large share of simulated time, so
	// the wait count stays fixed: a seed-chosen one would move sim_cpi
	// between seeds by more than its bound.
	spec := fleetRunSpec{
		Compute:      make([]bool, n),
		ComputeIters: itersLo + rng.Intn(itersSpan),
		IdleWaits:    3,
	}
	for base := 0; base < n; base += fleetRunHandful {
		slot := base + rng.Intn(min(fleetRunHandful, n-base))
		if slot == 0 {
			slot = 1 // slot 0 is the idle template
		}
		spec.Compute[slot] = true
	}
	return spec
}

// computeResult is the closed form of the compute guest's loop:
// 1 + 2 + ... + n, modulo 2^32.
func computeResult(n int) uint32 {
	m := uint64(n)
	return uint32(m * (m + 1) / 2)
}

// fleetAPISpec drives the HTTP control plane. Each client walks its
// own deterministic script of lifecycles (clone → snapshot → halt →
// destroy, plus restore → destroy for a seed-chosen share), each
// charged to a seed-chosen tenant.
type fleetAPISpec struct {
	seed            int64
	Tenants         []string
	RestorePermille int
	Warmup          int // lifecycles run before the measured phase
}

func genFleetAPI(seed int64, sz size) fleetAPISpec {
	rng := rand.New(rand.NewSource(seed))
	spec := fleetAPISpec{seed: seed, RestorePermille: 200 + rng.Intn(151), Warmup: 16}
	if sz == tiny {
		spec.Warmup = 2
	}
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		spec.Tenants = append(spec.Tenants, fmt.Sprintf("tenant-%02d", rng.Intn(100)))
	}
	return spec
}

// lifecycle is one scripted API lifecycle.
type lifecycle struct {
	Tenant  string
	Restore bool
}

// script returns client c's lifecycle generator: the j-th call yields
// the client's j-th lifecycle, identical for every run with this seed.
func (s fleetAPISpec) script(c int) func() lifecycle {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(c)))
	return func() lifecycle {
		return lifecycle{
			Tenant:  s.Tenants[rng.Intn(len(s.Tenants))],
			Restore: rng.Intn(1000) < s.RestorePermille,
		}
	}
}
