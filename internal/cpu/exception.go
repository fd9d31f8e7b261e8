package cpu

import (
	"repro/internal/mem"
	"repro/internal/vax"
)

// Exception and interrupt dispatch. Every event funnels through
// raise(): microcode clears PSL<VM>, the exception sink (the VMM, when
// one is attached) gets first claim, and otherwise the hardware vectors
// through the SCB at SCBB.

// raise delivers an exception, consulting the sink first.
func (c *CPU) raise(e *vax.Exception) {
	c.Stats.Exceptions++
	e.FromVM = c.InVMMode()
	if e.FromVM {
		// Microcode clears PSL<VM> on any exception or interrupt, so
		// software never observes it set (Section 4.2).
		c.psl = c.psl.WithVM(false)
	}
	if c.Sink != nil && c.Sink.HandleException(c, e) {
		return
	}
	if err := c.DispatchSCB(e, vax.Kernel); err != nil {
		// Exception during exception dispatch: the processor halts
		// (simplified from the VAX's console restart).
		c.Halt(HaltDoubleError)
	}
}

// DispatchSCB performs the hardware transfer of control through the
// system control block for exception e, entering newMode. The saved
// PC/PSL pair and e.Params are pushed on the new stack, first parameter
// on top.
func (c *CPU) DispatchSCB(e *vax.Exception, newMode vax.Mode) error {
	scbLong, err := c.Mem.LoadLong(c.SCBB + uint32(e.Vector))
	if err != nil {
		return err
	}
	handler := scbLong &^ 3
	useIS := scbLong&1 == 1 || c.psl.IS()
	if newMode != vax.Kernel {
		useIS = false
	}
	if handler == 0 {
		return &vax.Exception{Vector: vax.VecMachineCheck, Kind: vax.Abort}
	}

	oldPSL := c.psl
	oldPC := c.R[RegPC]

	ipl := oldPSL.IPL()
	if e.Kind == vax.Interrupt && len(e.Params) > 0 {
		ipl = uint8(e.Params[0]) // interrupt level rides in Params[0]
	}
	newPSL := vax.PSL(0).WithCur(newMode).WithPrv(oldPSL.Cur()).WithIPL(ipl)
	if useIS {
		newPSL = vax.PSL(uint32(newPSL) | vax.PSLIS)
	}
	c.SetPSL(newPSL)

	if err := c.Push(uint32(oldPSL)); err != nil {
		return err
	}
	if err := c.Push(oldPC); err != nil {
		return err
	}
	params := e.Params
	if e.Kind == vax.Interrupt {
		params = nil // the level is not pushed
	}
	for i := len(params) - 1; i >= 0; i-- {
		if err := c.Push(params[i]); err != nil {
			return err
		}
	}
	c.R[RegPC] = handler
	c.Cycles += CostExceptionDispatch
	return nil
}

// deliverInterrupt dispatches the pending interrupt at the given level.
func (c *CPU) deliverInterrupt(level uint8) {
	var vec vax.Vector
	if c.pendingIRQ[level] != 0 {
		vec = vax.Vector(c.pendingIRQ[level])
		c.pendingIRQ[level] = 0
		c.irqSummary &^= 1 << level
	} else {
		// Software interrupt: delivering clears the SISR bit.
		vec = vax.SoftwareVector(level)
		c.SISR &^= 1 << level
	}
	c.Stats.Interrupts++
	c.raise(c.scratch.Set1(vec, vax.Interrupt, uint32(level)))
}

// handleError converts an execution error into the architectural
// response: faults restore the register file (undoing operand side
// effects) and re-execute after the handler; traps leave PC at the next
// instruction; bus errors become machine checks.
func (c *CPU) handleError(err error, startPC uint32) {
	switch e := err.(type) {
	case *vax.Exception:
		if e.Kind == vax.Fault {
			c.R = c.regSnapshot
			c.R[RegPC] = startPC
		}
		c.raise(e)
	case *mem.BusError:
		c.R = c.regSnapshot
		c.R[RegPC] = startPC
		c.raise(c.scratch.Set1(vax.VecMachineCheck, vax.Abort, e.Addr))
	default:
		c.Halt(HaltBusError)
	}
}

// Step advances the machine by one instruction (or one interrupt
// delivery, or one idle WAIT cycle).
func (c *CPU) Step() {
	if c.Halted {
		return
	}
	before := c.Cycles
	if lvl := c.PendingAbove(c.psl.IPL()); lvl > 0 {
		if c.sb != nil && c.sb.building {
			// Delivery redirects PC into a handler; the trace being
			// recorded ends at the instruction before it.
			c.sbFinishBuild()
		}
		c.deliverInterrupt(lvl)
		c.tick(c.Cycles - before)
		return
	}
	if c.waiting {
		// WAIT idles until an interrupt arrives (or the VMM's timeout).
		c.Cycles += CostWaitIdle
		c.tick(c.Cycles - before)
		return
	}
	c.regSnapshot = c.R
	c.instStartPC = c.R[RegPC]
	if c.TrapAllInVM && c.InVMMode() && c.VMPSL.Cur() == vax.Kernel && !c.trapAllSkipOnce {
		// Goldberg scheme 1: every VM-kernel instruction traps for
		// emulation before it is even decoded.
		c.Stats.VMTraps++
		c.Cycles += CostVMTrap
		if c.sb != nil && c.sb.building {
			c.sbFinishBuild()
		}
		c.raise(c.vmScratch.Set(vax.Fault, 0xFFFF, c.instStartPC,
			c.instStartPC, c.GuestPSL(), nil, nil))
		c.tick(c.Cycles - before)
		return
	}
	c.trapAllSkipOnce = false
	if c.sb != nil {
		// The translation tier executes a whole superblock per Step
		// when one is valid at the PC (interrupts were polled above;
		// devices tick below on the block's accumulated cycles).
		c.stepTranslated()
		c.tick(c.Cycles - before)
		return
	}
	if err := c.execOne(); err != nil {
		c.handleError(err, c.instStartPC)
	}
	c.Stats.Instructions++
	c.tick(c.Cycles - before)
}

func (c *CPU) tick(cycles uint64) {
	for i := range c.devices {
		c.devices[i].Tick(c, cycles)
	}
}

// Run steps the machine until it halts or maxSteps steps have been
// taken (0 = no limit). A step is an instruction, an interrupt delivery
// or an idle WAIT cycle. It returns the number of steps taken.
//
// Idle WAIT steps up to the next device event are taken in one jump
// (skipIdle); the result is the same as calling Step that many times.
func (c *CPU) Run(maxSteps uint64) uint64 {
	var steps uint64
	for !c.Halted {
		if c.waiting && !c.noSkip {
			budget := NoEvent
			if maxSteps != 0 {
				budget = maxSteps - steps
			}
			steps += c.skipIdle(budget)
			if maxSteps != 0 && steps >= maxSteps {
				break
			}
		}
		c.Step()
		steps++
		if maxSteps != 0 && steps >= maxSteps {
			break
		}
	}
	return steps
}

// skipIdle takes up to budget idle WAIT steps at once and returns how
// many it took. Between events a device's state is linear in the
// cycles it is ticked, so n idle steps are n·CostWaitIdle cycles and
// one Tick with their total. The jump stops one step short of the
// nearest event, leaving the step that fires it to Step; it takes
// nothing while an interrupt is deliverable, since the next Step would
// deliver it rather than idle.
func (c *CPU) skipIdle(budget uint64) uint64 {
	if c.PendingAbove(c.psl.IPL()) != 0 {
		return 0
	}
	next := NoEvent
	for i := range c.devices {
		if t := c.devices[i].ev.NextEvent(); t < next {
			next = t
		}
	}
	if next == 0 || next == NoEvent && budget == NoEvent {
		// An event fires on the very next step, or nothing will ever
		// end an unbounded wait: step as usual.
		return 0
	}
	n := min((next-1)/CostWaitIdle, budget)
	if n == 0 {
		return 0
	}
	cycles := n * CostWaitIdle
	c.Cycles += cycles
	c.tick(cycles)
	c.Stats.IdleSkips++
	c.Stats.IdleSkippedSteps += n
	return n
}
