package engine

import (
	"math/rand"

	"repro/internal/memmap"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Instruction-cost model: a fetched 64-byte code block retires ~12
// instructions on average (SPARC fixed 4-byte encoding, discounting
// branches out of the block), and each data access accounts for the access
// plus ~1.5 surrounding ALU instructions. Absolute MPKI values depend on
// these constants, shapes do not.
const (
	instrPerCodeBlock = 12
	instrPerAccess    = 2
)

// TranslateFunc is the VM hook the access methods enter on a TLB miss;
// it emits the page-walk accesses of a software TLB fill. Contract: when
// it returns, the page holding addr is in the TLB registered with
// InstallTLB. The access methods rely on it: they check the TLB once per
// page of a multi-block access (Call, ReadN, WriteN) and hand the
// machine the page's blocks as one run, and nothing inside a run touches
// the TLB. Without registered TLB arrays every check misses, so the hook
// runs before each single access and once per page of a run.
type TranslateFunc func(ctx *Ctx, addr uint64, instruction bool)

// WindowFunc is the register-window hook invoked on call/return with the
// thread whose window over/underflows.
type WindowFunc func(ctx *Ctx, t *TCB, spill bool)

// Ctx is the per-CPU execution context threads use to emit memory
// accesses. It maintains the simulated call stack (the paper attributes
// every miss to the function enclosing it) and applies the VM and
// register-window hooks the kernel model installs.
//
// The access methods run once per simulated memory reference or run of
// blocks — the hottest boundary in the system — so they call the
// concrete DSM or CMP model directly instead of through the Machine
// interface, and the VM's TLB-hit check runs inline against tag arrays
// the kernel model registers with InstallTLB: the translate hook is only
// entered on actual TLB misses, and a multi-block access checks the TLB
// once per page.
type Ctx struct {
	CPU  int
	Eng  *Engine
	Rand *rand.Rand

	mem       sim.Machine
	dsm       *sim.DSM // non-nil when mem is the multi-chip model
	cmp       *sim.CMP // non-nil when mem is the single-chip model
	cur       *TCB
	fnStack   []trace.FuncID
	curFn     trace.FuncID // top of fnStack, cached for the per-access path
	translate TranslateFunc
	dtlb      []uint64 // this CPU's data-TLB tags (vpn+1); noTLB without VM
	itlb      []uint64 // this CPU's instruction-TLB tags
	tlbMask   uint64
	noTLB     [1]uint64 // the sentinel TLB: its one tag, 0, matches no vpn+1
	onWindow  WindowFunc
	instr     uint64
}

// InstallVM sets the translation hook (nil disables, along with any fast
// TLB tags registered by InstallTLB).
func (c *Ctx) InstallVM(f TranslateFunc) {
	c.translate = f
	if f == nil {
		c.dtlb, c.itlb, c.tlbMask = c.noTLB[:], c.noTLB[:], 0
	}
}

// InstallTLB registers the VM's per-CPU TLB tag arrays (entries hold
// vpn+1, the length a power of two) so the translated-access fast path
// can check them without calling the hook. The arrays are shared with the
// VM model, which keeps filling them on misses; the TranslateFunc
// contract requires the hook to leave the missed page in them.
func (c *Ctx) InstallTLB(dtlb, itlb []uint64) {
	c.dtlb, c.itlb = dtlb, itlb
	c.tlbMask = uint64(len(dtlb) - 1)
}

// InstallWindows sets the register-window hook (nil disables).
func (c *Ctx) InstallWindows(f WindowFunc) { c.onWindow = f }

// Thread returns the currently running TCB (nil outside Step).
func (c *Ctx) Thread() *TCB { return c.cur }

// Fn returns the function currently on top of the simulated call stack.
func (c *Ctx) Fn() trace.FuncID { return c.curFn }

// xlateData enters the VM's miss handler for a data access unless the
// TLB already holds the page. It is small enough to inline into the
// access methods (at exactly the compiler's budget, which CI checks); the
// miss handler stays out of line.
func (c *Ctx) xlateData(addr uint64) {
	if vpn := addr >> memmap.PageBits; c.dtlb[vpn&c.tlbMask] != vpn+1 {
		c.tlbMiss(addr, false)
	}
}

// xlateInstr is xlateData for instruction fetches.
func (c *Ctx) xlateInstr(addr uint64) {
	if vpn := addr >> memmap.PageBits; c.itlb[vpn&c.tlbMask] != vpn+1 {
		c.tlbMiss(addr, true)
	}
}

// tlbMiss enters the VM's miss handler. It is kept out of line so the
// TLB-hit checks stay within the inlining budget.
//
//go:noinline
func (c *Ctx) tlbMiss(addr uint64, instruction bool) {
	if c.translate != nil {
		c.translate(c, addr, instruction)
	}
}

// pageRunEnd returns where the run of blocks starting at a ends: at the
// end of a's page, or at end if that comes first.
func pageRunEnd(a, end uint64) uint64 {
	return min(memmap.PageOf(a)+memmap.PageSize, end)
}

// blockSpan returns the block-aligned range covering [addr, addr+n).
func blockSpan(addr, n uint64) (from, to uint64) {
	return memmap.BlockOf(addr), memmap.BlockOf(addr + n + memmap.BlockSize - 1)
}

// Call enters function f: the call stack grows, f's code blocks are
// fetched, one run per page, and the register-window hook may spill.
func (c *Ctx) Call(f trace.Func) {
	c.fnStack = append(c.fnStack, f.ID)
	c.curFn = f.ID
	if f.Code.Size > 0 {
		from, to := blockSpan(f.Code.Base, f.Code.Size)
		for a := from; a < to; {
			next := pageRunEnd(a, to)
			c.xlateInstr(a)
			if c.dsm != nil {
				c.dsm.FetchRun(c.CPU, a, next, f.ID)
			} else {
				c.cmp.FetchRun(c.CPU, a, next, f.ID)
			}
			a = next
		}
		c.instr += instrPerCodeBlock * ((to - from) >> memmap.BlockBits)
	}
	if c.cur != nil {
		c.cur.WinDepth++
		if c.onWindow != nil && c.cur.WinDepth%8 == 0 {
			c.onWindow(c, c.cur, true)
		}
	}
}

// Ret leaves the current function.
func (c *Ctx) Ret() {
	if n := len(c.fnStack); n > 0 {
		c.fnStack = c.fnStack[:n-1]
		if n > 1 {
			c.curFn = c.fnStack[n-2]
		} else {
			c.curFn = 0
		}
	}
	if c.cur != nil {
		if c.onWindow != nil && c.cur.WinDepth%8 == 0 && c.cur.WinDepth > 0 {
			c.onWindow(c, c.cur, false)
		}
		if c.cur.WinDepth > 0 {
			c.cur.WinDepth--
		}
	}
}

// Read emits one data read at addr, attributed to the current function.
func (c *Ctx) Read(addr uint64) {
	c.xlateData(addr)
	if c.dsm != nil {
		c.dsm.Read(c.CPU, addr, c.curFn)
	} else {
		c.cmp.Read(c.CPU, addr, c.curFn)
	}
	c.instr += instrPerAccess
}

// Write emits one data write at addr.
func (c *Ctx) Write(addr uint64) {
	c.xlateData(addr)
	if c.dsm != nil {
		c.dsm.Write(c.CPU, addr, c.curFn)
	} else {
		c.cmp.Write(c.CPU, addr, c.curFn)
	}
	c.instr += instrPerAccess
}

// ReadN touches every block of [addr, addr+n) with reads, in ascending
// order (sequential data structure walks and copy sources), one run per
// page.
func (c *Ctx) ReadN(addr, n uint64) {
	if n == 0 {
		return
	}
	from, to := blockSpan(addr, n)
	for a := from; a < to; {
		next := pageRunEnd(a, to)
		c.xlateData(a)
		if c.dsm != nil {
			c.dsm.ReadRun(c.CPU, a, next, c.curFn)
		} else {
			c.cmp.ReadRun(c.CPU, a, next, c.curFn)
		}
		a = next
	}
	c.instr += instrPerAccess * ((to - from) >> memmap.BlockBits)
}

// WriteN touches every block of [addr, addr+n) with writes, one run per
// page.
func (c *Ctx) WriteN(addr, n uint64) {
	if n == 0 {
		return
	}
	from, to := blockSpan(addr, n)
	for a := from; a < to; {
		next := pageRunEnd(a, to)
		c.xlateData(a)
		if c.dsm != nil {
			c.dsm.WriteRun(c.CPU, a, next, c.curFn)
		} else {
			c.cmp.WriteRun(c.CPU, a, next, c.curFn)
		}
		a = next
	}
	c.instr += instrPerAccess * ((to - from) >> memmap.BlockBits)
}

// RawRead bypasses the VM hook (used by the VM model itself: hardware
// table walks and TSB accesses are physically addressed).
func (c *Ctx) RawRead(addr uint64, fn trace.FuncID) {
	if c.dsm != nil {
		c.dsm.Read(c.CPU, addr, fn)
	} else {
		c.cmp.Read(c.CPU, addr, fn)
	}
	c.instr += instrPerAccess
}

// RawWrite bypasses the VM hook.
func (c *Ctx) RawWrite(addr uint64, fn trace.FuncID) {
	if c.dsm != nil {
		c.dsm.Write(c.CPU, addr, fn)
	} else {
		c.cmp.Write(c.CPU, addr, fn)
	}
	c.instr += instrPerAccess
}

// RawFetch emits one instruction fetch without translation (trap handlers
// run out of locked TLB entries).
func (c *Ctx) RawFetch(addr uint64, fn trace.FuncID) {
	if c.dsm != nil {
		c.dsm.Fetch(c.CPU, addr, fn)
	} else {
		c.cmp.Fetch(c.CPU, addr, fn)
	}
	c.instr += instrPerCodeBlock
}

// NonAllocStore emits a cache-bypassing store (default_copyout's block
// stores) for every block of [addr, addr+n).
func (c *Ctx) NonAllocStore(addr, n uint64) {
	if n == 0 {
		return
	}
	fn := c.Fn()
	for a := memmap.BlockOf(addr); a < addr+n; a += memmap.BlockSize {
		c.xlateData(a)
		c.mem.NonAllocStore(c.CPU, a, fn)
		c.instr += instrPerAccess
	}
}

// DMAWrite models a device write (no CPU instructions retired).
func (c *Ctx) DMAWrite(addr, n uint64) { c.mem.DMAWrite(addr, n) }

// AddInstr accounts extra computation that touches no memory (spin loops,
// checksum arithmetic over already-read data).
func (c *Ctx) AddInstr(n uint64) { c.instr += n }

// flushInstr posts accumulated instruction counts to the machine.
func (c *Ctx) flushInstr() {
	if c.instr > 0 {
		c.mem.Tick(c.CPU, c.instr)
		c.instr = 0
	}
}
