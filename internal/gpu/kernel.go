// Package gpu implements the cycle-level SIMT core model: streaming
// multiprocessors with GTO warp schedulers, a scoreboard, SIMT
// divergence, ALU/SFU/LSU pipelines with structural hazards, a memory
// coalescer, per-SM L1 caches and MSHRs, the pending-store buffer, and the
// Figure 1 stall-cycle taxonomy. It integrates the CABA framework
// (internal/core) for assist-warp execution and drives the shared memory
// system (internal/mem).
package gpu

import (
	"fmt"

	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/mem"
)

// Kernel is a launchable grid of cooperative thread arrays.
type Kernel struct {
	Prog       *isa.Program
	GridCTAs   int       // thread blocks in the grid
	CTAThreads int       // threads per block
	SharedMem  int       // shared-memory bytes per block
	Params     [4]uint64 // %p0..%p3 kernel parameters
}

// Validate reports the first kernel configuration problem.
func (k *Kernel) Validate(cfg *config.Config) error {
	switch {
	case k.Prog == nil:
		return fmt.Errorf("gpu: kernel has no program")
	case k.GridCTAs <= 0:
		return fmt.Errorf("gpu: grid must have at least one CTA")
	case k.CTAThreads <= 0 || k.CTAThreads > cfg.MaxThreadsPerSM:
		return fmt.Errorf("gpu: %d threads per CTA out of range", k.CTAThreads)
	case k.SharedMem > cfg.SharedMemPerSM:
		return fmt.Errorf("gpu: CTA shared memory %d exceeds SM capacity", k.SharedMem)
	}
	return k.Prog.Validate()
}

// WarpsPerCTA returns the warps needed per block.
func (k *Kernel) WarpsPerCTA(cfg *config.Config) int {
	return (k.CTAThreads + cfg.WarpSize - 1) / cfg.WarpSize
}

// Occupancy describes the static resource allocation of a kernel on one SM
// (the Figure 2 analysis).
type Occupancy struct {
	CTAsPerSM         int
	WarpsPerSM        int
	ThreadsPerSM      int
	RegsPerThread     int
	AssistRegsPerWarp int // reserved for assist warps (CABA designs)
	RegsAllocated     int
	UnallocatedRegs   float64 // fraction of the register file left idle
	LimitedBy         string
}

// ComputeOccupancy performs the compiler/driver occupancy calculation:
// how many CTAs fit per SM given the register file, shared memory, and the
// thread/block hard limits. assistRegs is the per-warp register reservation
// for assist-warp routines (0 for non-CABA designs); the paper adds this to
// the per-block requirement (Section 3.2.2).
func ComputeOccupancy(cfg *config.Config, k *Kernel, assistRegs int) Occupancy {
	warpsPerCTA := k.WarpsPerCTA(cfg)
	regsPerCTA := warpsPerCTA * cfg.WarpSize * (k.Prog.NumReg + assistRegs)

	limit := cfg.MaxCTAsPerSM
	by := "block limit"
	if t := cfg.MaxThreadsPerSM / k.CTAThreads; t < limit {
		limit, by = t, "thread limit"
	}
	if w := cfg.MaxWarpsPerSM / warpsPerCTA; w < limit {
		limit, by = w, "warp contexts"
	}
	if regsPerCTA > 0 {
		if r := cfg.RegFilePerSM / regsPerCTA; r < limit {
			limit, by = r, "registers"
		}
	}
	if k.SharedMem > 0 {
		if s := cfg.SharedMemPerSM / k.SharedMem; s < limit {
			limit, by = s, "shared memory"
		}
	}
	if limit < 1 {
		limit, by = 1, "minimum"
	}
	occ := Occupancy{
		LimitedBy:         by,
		CTAsPerSM:         limit,
		WarpsPerSM:        limit * warpsPerCTA,
		ThreadsPerSM:      limit * k.CTAThreads,
		RegsPerThread:     k.Prog.NumReg,
		AssistRegsPerWarp: assistRegs,
		RegsAllocated:     limit * regsPerCTA,
	}
	occ.UnallocatedRegs = 1 - float64(occ.RegsAllocated)/float64(cfg.RegFilePerSM)
	return occ
}

// Warps access global memory through their SM's write buffer, which
// implements the executor's functional interface with staged (phase-A
// safe) semantics.
var _ core.GlobalMem = (*mem.WriteBuffer)(nil)
