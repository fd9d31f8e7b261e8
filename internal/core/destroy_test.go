package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/vax"
)

func TestDestroyRequiresHalted(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	if err := k.DestroyVM(vm); err == nil || !strings.Contains(err.Error(), "live") {
		t.Fatalf("destroy of live VM = %v, want a live-VM refusal", err)
	}
	runVM(t, k, vm, 10_000_000)
	if err := k.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if len(k.VMs()) != 0 {
		t.Fatalf("%d VMs after destroy", len(k.VMs()))
	}
	if err := k.DestroyVM(vm); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

// TestDestroyRecyclesContiguousRun: a destroyed VM's frames satisfy
// the next same-geometry CreateVM without raising the high-water mark,
// and FreePages falls by exactly the frames the new VM owns.
func TestDestroyRecyclesContiguousRun(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	runVM(t, k, vm, 10_000_000)
	if err := k.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	free, carved := k.FreePages(), k.CarvedPages()

	img, prog := guestImage(t, cloneComputeSrc, nil)
	vm2, err := k.CreateVM(VMConfig{
		MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := k.CarvedPages(); got != carved {
		t.Fatalf("high-water mark %d after recycled create, want %d (carved fresh)", got, carved)
	}
	owned := vm2.MemSize / vax.PageSize
	for _, r := range vm2.shadow.runs {
		owned += r[1]
	}
	if got := k.FreePages(); got != free-owned {
		t.Fatalf("free pages %d after recycled create, want %d - %d owned", got, free, owned)
	}
	// The recycled VM must start from zeroed, decode-invalidated pages:
	// it runs to the same halt as its predecessor.
	vm2.SPs[0] = gKSP
	k.CPU.ClearHalt()
	runVM(t, k, vm2, 10_000_000)
}

// TestDestroyCloneDropsRefs destroys a clone and checks the shared
// frames survive for the source while privatized frames recycle.
func TestDestroyCloneDropsRefs(t *testing.T) {
	k, src, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	c1, err := k.Clone(src, "c1")
	if err != nil {
		t.Fatal(err)
	}
	k.HaltVM(c1, "test teardown")
	if err := k.DestroyVM(c1); err != nil {
		t.Fatal(err)
	}
	// The source still runs to completion on its shared frames.
	runVM(t, k, src, 10_000_000)
	if len(k.VMs()) != 1 {
		t.Fatalf("%d VMs, want just the source", len(k.VMs()))
	}
}

func TestDestroyKeepsIDsUnique(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	first := vm.ID
	runVM(t, k, vm, 10_000_000)
	if err := k.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	img, prog := guestImage(t, cloneComputeSrc, nil)
	vm2, err := k.CreateVM(VMConfig{
		MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vm2.ID == first {
		t.Fatalf("new VM reused id %d of a destroyed VM", first)
	}
	if got := k.VMByID(vm2.ID); got != vm2 {
		t.Fatalf("VMByID(%d) = %v", vm2.ID, got)
	}
	if got := k.VMByID(first); got != nil {
		t.Fatalf("VMByID(%d) = %v for a destroyed VM", first, got)
	}
}

func TestHaltVMExported(t *testing.T) {
	k, vm, _ := bootVM(t, Config{}, cloneComputeSrc, nil)
	k.HaltVM(vm, "operator says stop")
	halted, msg := vm.Halted()
	if !halted || msg != "operator says stop" {
		t.Fatalf("halted=%v msg=%q", halted, msg)
	}
	k.HaltVM(vm, "again") // idempotent: must not clobber the message
	if _, msg := vm.Halted(); msg != "operator says stop" {
		t.Fatalf("msg = %q after double halt", msg)
	}
}

func TestQuotaBackstop(t *testing.T) {
	img, prog := guestImage(t, cloneComputeSrc, nil)
	cfg := VMConfig{
		MemBytes: gMemSize, Image: img, StartPC: prog.MustSymbol("start"),
		PreMapped: true, SBR: gSPT, SLR: gSPTLen, SCBB: gSCB,
	}

	k := New(8<<20, Config{}, WithQuota(Quota{MaxVMs: 1}))
	if _, err := k.CreateVM(cfg); err != nil {
		t.Fatal(err)
	}
	_, err := k.CreateVM(cfg)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Resource != "vms" {
		t.Fatalf("over-quota create = %v", err)
	}

	kp := New(8<<20, Config{}, WithQuota(Quota{MaxPages: gMemSize / 512}))
	if _, err := kp.CreateVM(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := kp.CreateVM(cfg); err == nil {
		t.Fatal("page-quota breach admitted")
	}

	// A halted VM still counts against pages but frees a VM slot.
	vm := k.VMs()[0]
	k.HaltVM(vm, "stop")
	if _, err := k.CreateVM(cfg); err != nil {
		t.Fatalf("create after halt = %v (MaxVMs counts live VMs)", err)
	}
}
