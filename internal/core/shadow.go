package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/trace"
	"repro/internal/vax"
)

// Shadow page tables (Section 4.3.1). For each VM the VMM owns a real
// system page table laid out as:
//
//	S VPN 0 .. VMSLimitPTEs-1      shadow of the VM's system page table
//	                               (null PTEs until demand-filled)
//	S VPN VMSLimitPTEs ..          the VMM's private region "above an
//	                               installation-defined boundary"
//	                               (Figure 2): the cached shadow P0
//	                               tables, the shadow P1 table, and the
//	                               identity map used while the VM runs
//	                               with memory management disabled.
//
// The private region is protected KW, so only real kernel mode — the
// VMM itself — can touch it; the VM, running at executive mode or
// below, cannot (footnote 4 of the paper: the VMM's shadow process
// page tables must live in the shared virtual address space).
type shadowSpace struct {
	vm *VM

	sptPhys uint32 // real physical address of the real SPT
	realSLR uint32 // total length of the real SPT in PTEs

	// Shadow P0 table slots (the multi-process cache of Section 7.2).
	slotPhys  []uint32 // physical base of each slot's table
	slotVA    []uint32 // S-space virtual address of each slot
	slotOwner []uint32 // VM P0BR value cached in the slot; 0 = free
	slotLRU   []uint64 // last-use stamp
	active    int      // slot currently wired into real P0BR
	lruClock  uint64

	p1Phys, p1VA       uint32 // single shadow P1 table
	identPhys, identVA uint32 // identity P0 table for MAPEN=0
	identPTEs          uint32

	// runs records every page run backing these tables {page, pages},
	// so releaseRuns can free them when the VM halts; released guards
	// double release.
	runs     [][2]uint32
	released bool
}

// newShadowSpace allocates and wires a VM's shadow tables. On failure
// the runs already taken go back to the allocator.
func (k *VMM) newShadowSpace(vm *VM) (_ *shadowSpace, err error) {
	s := &shadowSpace{vm: vm, active: 0}
	defer func() {
		if err != nil {
			s.releaseRuns(k)
		}
	}()
	slots := k.cfg.ShadowCacheSlots

	vmPages := vm.MemSize / vax.PageSize
	s.identPTEs = vmPages
	identPages := (s.identPTEs*4 + vax.PageSize - 1) / vax.PageSize

	vmmRegionPages := uint32(slots)*procSlotPages + p1TablePages + identPages
	s.realSLR = VMSLimitPTEs + vmmRegionPages
	sptPages := (s.realSLR*4 + vax.PageSize - 1) / vax.PageSize

	sptPage, err := k.allocRun(sptPages)
	if err != nil {
		return nil, err
	}
	s.runs = append(s.runs, [2]uint32{sptPage, sptPages})
	s.sptPhys = sptPage * vax.PageSize

	// Null-initialize the whole SPT run (clear-on-reuse: a run of freed
	// frames carries the previous owner's PTEs). The private-region
	// PTEs are written over the tail below.
	if err := k.Mem.FillLong(s.sptPhys, sptPages*vax.PageSize/4, uint32(nullPTE)); err != nil {
		return nil, err
	}

	// Allocate the private-region structures and map them KW in the
	// real SPT.
	vpn := uint32(VMSLimitPTEs)
	mapRegion := func(pages uint32) (phys uint32, va uint32, err error) {
		page, err := k.allocRun(pages)
		if err != nil {
			return 0, 0, err
		}
		s.runs = append(s.runs, [2]uint32{page, pages})
		// Clear-on-reuse: restore the null-PTE default over the run
		// before it is wired anywhere.
		if err := k.Mem.FillLong(page*vax.PageSize, pages*vax.PageSize/4, uint32(nullPTE)); err != nil {
			return 0, 0, err
		}
		va = vax.SystemBase + vpn*vax.PageSize
		for i := uint32(0); i < pages; i++ {
			pte := vax.NewPTE(true, vax.ProtKW, true, page+i)
			if err := k.Mem.StoreLong(s.sptPhys+4*vpn, uint32(pte)); err != nil {
				return 0, 0, err
			}
			vpn++
		}
		return page * vax.PageSize, va, nil
	}

	// mapRegion already null-filled the slot and P1 runs; clearing them
	// again here would double the host-side table-initialization cost
	// that dominates VM creation and cloning. The *simulated* cost and
	// the ShadowClears count stay exactly what clearSlot would have
	// charged per slot, so guest-visible cycle totals are unchanged.
	for i := 0; i < slots; i++ {
		phys, va, err := mapRegion(procSlotPages)
		if err != nil {
			return nil, err
		}
		s.slotPhys = append(s.slotPhys, phys)
		s.slotVA = append(s.slotVA, va)
		s.slotOwner = append(s.slotOwner, 0)
		s.slotLRU = append(s.slotLRU, 0)
		vm.Stats.ShadowClears++
		k.CPU.AddCycles(uint64(ProcTablePTEs) / 8)
	}
	if s.p1Phys, s.p1VA, err = mapRegion(p1TablePages); err != nil {
		return nil, err
	}
	if s.identPhys, s.identVA, err = mapRegion(identPages); err != nil {
		return nil, err
	}
	if err := s.buildIdentity(k); err != nil {
		return nil, err
	}
	return s, nil
}

// buildIdentity (re)writes the identity P0 table for MAPEN=0: VM-
// physical page j at its real frame, all modes. On a contiguous VM the
// entries are premodified (no M-bit tracking while the VM runs
// unmapped); on a frames-backed VM a shared frame is mapped with M
// clear so the first unmapped store takes a modify fault and COW-breaks
// (clone.go rewrites the entry when the frame privatizes).
func (s *shadowSpace) buildIdentity(k *VMM) error {
	vm := s.vm
	for j := uint32(0); j < s.identPTEs; j++ {
		f := vm.frame(j)
		m := vm.frames == nil || !k.cowShared(f)
		pte := vax.NewPTE(true, vax.ProtUW, m, f)
		if err := k.Mem.StoreLong(s.identPhys+4*j, uint32(pte)); err != nil {
			return err
		}
	}
	return nil
}

// clearSlot resets a shadow P0 table to null PTEs. The host-side bulk
// fill replaces a 2048-iteration store loop; the simulated cost charged
// is unchanged.
func (s *shadowSpace) clearSlot(k *VMM, slot int) error {
	if err := k.Mem.FillLong(s.slotPhys[slot], ProcTablePTEs, uint32(nullPTE)); err != nil {
		return err
	}
	s.vm.Stats.ShadowClears++
	k.CPU.AddCycles(uint64(ProcTablePTEs) / 8) // bulk clear cost
	return nil
}

func (s *shadowSpace) clearP1(k *VMM) error {
	return k.Mem.FillLong(s.p1Phys, P1TablePTEs, uint32(nullPTE))
}

// clearSRegion resets the VM S shadow to null PTEs (SBR/SLR change or
// guest TBIA).
func (s *shadowSpace) clearSRegion(k *VMM) error {
	if err := k.Mem.FillLong(s.sptPhys, VMSLimitPTEs, uint32(nullPTE)); err != nil {
		return err
	}
	s.vm.Stats.ShadowClears++
	k.CPU.AddCycles(uint64(VMSLimitPTEs) / 8)
	return nil
}

// releaseRuns frees every page run backing these tables. Called when
// the VM halts for good; idempotent.
func (s *shadowSpace) releaseRuns(k *VMM) {
	if s.released {
		return
	}
	s.released = true
	for _, r := range s.runs {
		k.freeRun(r[0], r[1])
	}
}

// activate wires this VM's shadow tables into the real mapping
// registers.
func (s *shadowSpace) activate(c *cpu.CPU) {
	c.MMU.SBR = s.sptPhys
	c.MMU.SLR = s.realSLR
	c.MMU.Enabled = true
	vm := s.vm
	if !vm.mapen {
		// MAPEN off in the VM: identity-map VM-physical space through
		// the prebuilt P0 table; no P1 or VM-S translations exist.
		c.MMU.P0BR = s.identVA
		c.MMU.P0LR = s.identPTEs
		c.MMU.P1BR = s.p1VA
		c.MMU.P1LR = 0
		return
	}
	c.MMU.P0BR = s.slotVA[s.active]
	c.MMU.P0LR = min32(vm.p0lr, ProcTablePTEs)
	c.MMU.P1BR = s.p1VA
	c.MMU.P1LR = min32(vm.p1lr, P1TablePTEs)
}

// switchProcess points the shadow machinery at the guest address space
// whose P0 base is p0br, using the multi-process cache when enabled
// (Section 7.2): if a cached shadow table already holds this process's
// translations, its previously valid shadow PTEs survive and the VM
// takes no refill faults for them.
func (s *shadowSpace) switchProcess(k *VMM, p0br uint32) error {
	vm := s.vm
	vm.Stats.ContextSwitches++
	k.noteProgress(vm)
	s.lruClock++
	// Cache lookup.
	for i, owner := range s.slotOwner {
		if owner == p0br && owner != 0 && len(s.slotOwner) > 1 {
			vm.Stats.CacheHits++
			s.active = i
			s.slotLRU[i] = s.lruClock
			s.activate(k.CPU)
			k.CPU.MMU.TBIA()
			return nil
		}
	}
	vm.Stats.CacheMisses++
	// Evict the least recently used slot.
	victim := 0
	for i := range s.slotLRU {
		if s.slotLRU[i] < s.slotLRU[victim] {
			victim = i
		}
	}
	if err := s.clearSlot(k, victim); err != nil {
		return err
	}
	s.slotOwner[victim] = p0br
	s.slotLRU[victim] = s.lruClock
	s.active = victim
	s.activate(k.CPU)
	k.CPU.MMU.TBIA()
	return nil
}

// shadowSlot returns the physical address of the shadow PTE covering
// va, or false if va is outside the shadowed ranges.
func (s *shadowSpace) shadowSlot(va uint32) (uint32, bool) {
	vpn := vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionSystem:
		if vpn >= VMSLimitPTEs {
			return 0, false
		}
		return s.sptPhys + 4*vpn, true
	case vax.RegionP0:
		if vpn >= ProcTablePTEs {
			return 0, false
		}
		return s.slotPhys[s.active] + 4*vpn, true
	case vax.RegionP1:
		if vpn >= P1TablePTEs {
			return 0, false
		}
		return s.p1Phys + 4*vpn, true
	}
	return 0, false
}

// invalidate restores the null PTE for the page containing va (guest
// TBIS, or a guest PTE change the VMM observes).
func (s *shadowSpace) invalidate(k *VMM, va uint32) {
	if slot, ok := s.shadowSlot(va); ok {
		_ = k.Mem.StoreLong(slot, uint32(nullPTE))
	}
	k.CPU.MMU.TBIS(va)
}

// fill translates the VM's PTE for va into the shadow PTE: real frame
// from the VM-physical frame, protection ring-compressed (Section
// 4.3.1). It returns the guest fault to reflect when the VM's own
// tables make the reference invalid, or nil on success.
func (k *VMM) fillShadow(vm *VM, va uint32, wantWrite bool) *guestFault {
	var fillStart uint64
	if vm.rec != nil {
		fillStart = k.CPU.Cycles
	}
	slot, ok := vm.shadow.shadowSlot(va)
	if !ok {
		// Outside the VM's maximum table sizes: length violation.
		return vm.avFault(va, wantWrite, true)
	}
	gpte, gf := k.guestPTE(vm, va, wantWrite)
	if gf != nil {
		return gf
	}
	if gpte.Prot().Reserved() {
		return vm.avFault(va, wantWrite, false)
	}
	if !gpte.Valid() {
		// The VM's page really is invalid: its own operating system
		// must service the page fault.
		return vm.tnvFaultG(va, wantWrite)
	}
	vmPFN := gpte.PFN()
	if k.cfg.MMIOEmulatedIO && isDeviceFrame(vmPFN) {
		// Device frames stay unmapped so every register reference
		// traps for emulation (Section 4.4.3's expensive alternative).
		return nil
	}
	if vmPFN*vax.PageSize >= vm.MemSize {
		k.haltVM(vm, fmt.Sprintf("reference to nonexistent VM-physical page %#x", vmPFN))
		return nil
	}
	spte := shadowPTEFor(vm, gpte, k.cfg.ReadOnlyShadow)
	_ = k.Mem.StoreLong(slot, uint32(spte))
	vm.Stats.ShadowFills++
	k.charge(cpu.CostVMMShadowFill)
	k.CPU.MMU.TBIS(va)

	// Optional prefetch of the following PTEs (Section 4.3.1's rejected
	// experiment): each extra fill costs the same work whether or not
	// the VM ever touches the page.
	for g := 1; g < k.cfg.PrefetchGroup; g++ {
		nva := va + uint32(g)*vax.PageSize
		if vax.Region(nva) != vax.Region(va) {
			break
		}
		nslot, ok := vm.shadow.shadowSlot(nva)
		if !ok {
			break
		}
		npte, gf := k.guestPTE(vm, nva, false)
		if gf != nil || !npte.Valid() || npte.Prot().Reserved() {
			continue
		}
		nPFN := npte.PFN()
		if nPFN*vax.PageSize >= vm.MemSize || (k.cfg.MMIOEmulatedIO && isDeviceFrame(nPFN)) {
			continue
		}
		nf := vm.frame(nPFN)
		nm := npte.Modified()
		if vm.frames != nil {
			if k.cowShared(nf) {
				nm = false
			} else if nm {
				vm.cowClean = false
			}
		}
		ns := vax.NewPTE(true, npte.Prot().Compress(), nm, nf)
		_ = k.Mem.StoreLong(nslot, uint32(ns))
		vm.Stats.PrefetchFills++
		k.charge(cpu.CostVMMShadowFill)
	}

	if k.cfg.FillBatch > 1 {
		k.batchFill(vm, va, k.cfg.FillBatch)
	}
	if vm.rec != nil {
		vm.rec.Record(trace.EvShadowFill, fillStart, va)
		vm.rec.Observe(trace.LatShadowFill, k.CPU.Cycles-fillStart)
	}
	return nil
}

// batchFill extends a demand fill with up to batch-1 following shadow
// PTEs read from the same guest page-table page in one walk
// (Config.FillBatch). Where PrefetchGroup — the paper's rejected
// experiment — re-walks the guest tables and pays the full fill cost
// per extra PTE, the batch resolves the guest PTE page once and reads
// neighbors raw within it, so the whole cluster costs one extra
// guest-table read. Two rules keep it invisible to the guest: only
// null shadow slots are filled (a non-null slot may carry shadow
// M-bit state the guest's tables do not), and a neighbor whose guest
// PTE is invalid, reserved, device-mapped or out of range is skipped
// silently — a speculative fill must never become a guest-visible
// fault. Neighbors are filled as reads (shadow M from the guest PTE),
// so the first write to a prefilled clean page still takes its modify
// fault.
func (k *VMM) batchFill(vm *VM, va uint32, batch int) {
	ptePhys, avail, ok := k.guestPTEWindow(vm, va)
	if !ok {
		return
	}
	n := uint32(batch - 1)
	if n > avail {
		n = avail
	}
	filled := uint64(0)
	for g := uint32(1); g <= n; g++ {
		nva := va + g*vax.PageSize
		if vax.Region(nva) != vax.Region(va) {
			break
		}
		nslot, ok := vm.shadow.shadowSlot(nva)
		if !ok {
			break
		}
		cur, err := k.Mem.LoadLong(nslot)
		if err != nil || vax.PTE(cur) != nullPTE {
			continue
		}
		gv, ok := vm.readPhys(ptePhys + 4*g)
		if !ok {
			break
		}
		gpte := vax.PTE(gv)
		if !gpte.Valid() || gpte.Prot().Reserved() {
			continue
		}
		nPFN := gpte.PFN()
		if nPFN*vax.PageSize >= vm.MemSize ||
			(k.cfg.MMIOEmulatedIO && isDeviceFrame(nPFN)) {
			continue
		}
		_ = k.Mem.StoreLong(nslot, uint32(shadowPTEFor(vm, gpte, k.cfg.ReadOnlyShadow)))
		filled++
	}
	if filled > 0 {
		vm.Stats.FillBatches++
		vm.Stats.BatchFills += filled
		if vm.rec != nil {
			vm.rec.Record(trace.EvBatchFill, k.CPU.Cycles, uint32(filled))
		}
		// One amortized walk for the cluster, not a full fill per PTE.
		k.charge(cpu.CostVMMShadowFill / 2)
		k.CPU.MMU.TBISRange(va+vax.PageSize, n)
	}
}

// guestPTEWindow resolves, in one walk of the VM's tables, the
// VM-physical address of the guest PTE for va together with the number
// of following PTEs readable from the same guest page-table page
// within the region's length register.
func (k *VMM) guestPTEWindow(vm *VM, va uint32) (ptePhys, avail uint32, ok bool) {
	vpn := vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionSystem:
		if vpn >= vm.slr {
			return 0, 0, false
		}
		addr := vm.sbr + 4*vpn
		return addr, min32((vax.PageSize-(addr&vax.PageMask))/4-1, vm.slr-vpn-1), true
	case vax.RegionP0, vax.RegionP1:
		br, lr := vm.p0br, vm.p0lr
		if vax.Region(va) == vax.RegionP1 {
			br, lr = vm.p1br, vm.p1lr
		}
		if vpn >= lr {
			return 0, 0, false
		}
		pteVA := br + 4*vpn
		if vax.Region(pteVA) != vax.RegionSystem {
			return 0, 0, false
		}
		svpn := vax.VPN(pteVA)
		if svpn >= vm.slr {
			return 0, 0, false
		}
		sv, sok := vm.readPhys(vm.sbr + 4*svpn)
		if !sok {
			return 0, 0, false
		}
		spte := vax.PTE(sv)
		if spte.Prot().Reserved() || !spte.Valid() {
			return 0, 0, false
		}
		ptePhys = spte.PFN()*vax.PageSize + (pteVA & vax.PageMask)
		return ptePhys, min32((vax.PageSize-(pteVA&vax.PageMask))/4-1, lr-vpn-1), true
	}
	return 0, 0, false
}

// shadowPTEFor translates a valid guest PTE into its shadow form: real
// frame from the VM-physical frame, protection ring-compressed, or —
// under the rejected Section 4.4.2 alternative — "unmodified" encoded
// as a write-denying protection with the shadow M bit held set so the
// modify fault never fires.
//
// On a frames-backed VM a shared frame must never be mapped writable
// without a fault between the guest and the store: under the default
// scheme the shadow M bit is held clear so the first write takes a
// modify fault, and under the read-only scheme the protection is
// demoted so the write takes the upgrade path — both land in cowBreak.
func shadowPTEFor(vm *VM, gpte vax.PTE, roScheme bool) vax.PTE {
	prot := gpte.Prot().Compress()
	modified := gpte.Modified()
	if roScheme {
		if !modified {
			prot = prot.ReadOnly()
		}
		modified = true
	}
	frame := vm.frame(gpte.PFN())
	if vm.frames != nil {
		if vm.k.cowShared(frame) {
			if roScheme {
				prot = prot.ReadOnly()
			} else {
				modified = false
			}
		} else if modified {
			// Writable mapping of a private frame: a future Clone must
			// demote it before the frame can be re-shared.
			vm.cowClean = false
		}
	}
	return vax.NewPTE(true, prot, modified, frame)
}

// guestPTE performs the software walk of the VM's own page tables for
// va (in VM terms: VM-physical frames, uncompressed protections).
func (k *VMM) guestPTE(vm *VM, va uint32, wantWrite bool) (vax.PTE, *guestFault) {
	vpn := vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionSystem:
		if vpn >= vm.slr {
			return 0, vm.avFault(va, wantWrite, true)
		}
		v, ok := vm.readPhys(vm.sbr + 4*vpn)
		if !ok {
			k.haltVM(vm, "system page table outside VM memory")
			return 0, nil
		}
		return vax.PTE(v), nil
	case vax.RegionP0, vax.RegionP1:
		br, lr := vm.p0br, vm.p0lr
		if vax.Region(va) == vax.RegionP1 {
			br, lr = vm.p1br, vm.p1lr
		}
		if vpn >= lr {
			return 0, vm.avFault(va, wantWrite, true)
		}
		// The process PTE lives in the VM's S space.
		pteVA := br + 4*vpn
		if vax.Region(pteVA) != vax.RegionSystem {
			return 0, vm.avFaultPTE(va, wantWrite)
		}
		svpn := vax.VPN(pteVA)
		if svpn >= vm.slr {
			return 0, vm.avFaultPTE(va, wantWrite)
		}
		sv, ok := vm.readPhys(vm.sbr + 4*svpn)
		if !ok {
			k.haltVM(vm, "page table page outside VM memory")
			return 0, nil
		}
		spte := vax.PTE(sv)
		if spte.Prot().Reserved() {
			return 0, vm.avFaultPTE(va, wantWrite)
		}
		if !spte.Valid() {
			return 0, vm.tnvFaultPTE(va, wantWrite)
		}
		pv, ok := vm.readPhys(spte.PFN()*vax.PageSize + (pteVA & vax.PageMask))
		if !ok {
			k.haltVM(vm, "page table page outside VM memory")
			return 0, nil
		}
		return vax.PTE(pv), nil
	}
	return 0, vm.avFault(va, wantWrite, true)
}

// setGuestPTEModify sets PTE<M> in the VM's own page table for va — the
// second half of the modify-fault handler ("the VMM sets PTE<M> in the
// shadow page table, and also sets the corresponding bit in the VM's
// page table", Section 4.4.2).
func (k *VMM) setGuestPTEModify(vm *VM, va uint32) bool {
	vpn := vax.VPN(va)
	switch vax.Region(va) {
	case vax.RegionSystem:
		addr := vm.sbr + 4*vpn
		v, ok := vm.readPhys(addr)
		if !ok {
			return false
		}
		return vm.writePhys(addr, uint32(vax.PTE(v).WithModify(true)))
	case vax.RegionP0, vax.RegionP1:
		br := vm.p0br
		if vax.Region(va) == vax.RegionP1 {
			br = vm.p1br
		}
		pteVA := br + 4*vpn
		svpn := vax.VPN(pteVA)
		sv, ok := vm.readPhys(vm.sbr + 4*svpn)
		if !ok || !vax.PTE(sv).Valid() {
			return false
		}
		addr := vax.PTE(sv).PFN()*vax.PageSize + (pteVA & vax.PageMask)
		v, ok := vm.readPhys(addr)
		if !ok {
			return false
		}
		return vm.writePhys(addr, uint32(vax.PTE(v).WithModify(true)))
	}
	return false
}

// LayoutRegion describes one range of the real S address space a VM and
// its VMM share (Figure 2 of the paper).
type LayoutRegion struct {
	Name   string
	BaseVA uint32
	Bytes  uint32
	Access string
}

// SharedSpaceLayout reports the live S-space layout for this VM: the
// VM's region below the installation-defined boundary and the VMM's
// private structures above it.
func (vm *VM) SharedSpaceLayout() []LayoutRegion {
	s := vm.shadow
	out := []LayoutRegion{{
		Name:   "VM system space (shadow of the VM's SPT)",
		BaseVA: vax.SystemBase,
		Bytes:  VMSLimitPTEs * vax.PageSize,
		Access: "VM protection codes, ring-compressed",
	}}
	for i, va := range s.slotVA {
		out = append(out, LayoutRegion{
			Name:   fmt.Sprintf("VMM: shadow P0 page table, slot %d", i),
			BaseVA: va,
			Bytes:  procSlotPages * vax.PageSize,
			Access: "KW (VMM only)",
		})
	}
	out = append(out,
		LayoutRegion{
			Name:   "VMM: shadow P1 page table",
			BaseVA: s.p1VA,
			Bytes:  p1TablePages * vax.PageSize,
			Access: "KW (VMM only)",
		},
		LayoutRegion{
			Name:   "VMM: identity map for MAPEN=0 execution",
			BaseVA: s.identVA,
			Bytes:  (s.identPTEs*4 + vax.PageSize - 1) / vax.PageSize * vax.PageSize,
			Access: "KW (VMM only)",
		})
	return out
}

// SLimit returns the VM's S-space limit in pages (the "installation-
// defined boundary" of Figure 2).
func (vm *VM) SLimit() uint32 { return VMSLimitPTEs }

// isDeviceFrame reports whether a VM-physical frame belongs to the
// virtual disk controller window.
func isDeviceFrame(pfn uint32) bool {
	base := VMDiskBase / vax.PageSize
	return pfn >= base && pfn < base+1
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}
