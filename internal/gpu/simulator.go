package gpu

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/mem"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/timing"
)

// defaultWedgeLimit is the consecutive-idle-drain-cycle budget used when
// Config.WedgeLimit is zero.
const defaultWedgeLimit = 10_000_000

// ErrInterrupted is wrapped by Run's error when Interrupt() stopped the
// simulation before completion.
var ErrInterrupted = errors.New("interrupted")

// Simulator is one GPU: cores, CABA framework, and the memory system, run
// against one kernel under one design.
type Simulator struct {
	Cfg    *config.Config
	Design config.Design
	Kernel *Kernel

	Q   *timing.Queue
	S   *stats.Sim
	Mem *mem.Memory
	Dom *mem.Domain
	Sys *mem.System
	AWS *core.Store

	sms        []*SM
	nextCTA    int
	cycle      uint64
	awtEntries int // AWT capacity per SM, register-budget limited

	occ Occupancy

	// ffSkips / ffCycles count fast-forward jumps and the cycles they
	// covered (observability; not part of the equivalence-checked stats).
	ffSkips  uint64
	ffCycles uint64

	// interrupted is set asynchronously by Interrupt(); Run polls it and
	// returns an ErrInterrupted-wrapping error. It is the only simulator
	// state another goroutine may touch during Run.
	interrupted atomic.Bool

	// OnCheckpoint receives the sealed snapshot blob at every
	// Config.CheckpointEvery boundary (the hook owns persistence; a nil
	// hook disables checkpointing). An error aborts the run.
	OnCheckpoint func(cycle uint64, blob []byte) error

	// idleStreak is the drain-phase wedge counter. It is a field (not a
	// Run local) because it is part of the architectural state a snapshot
	// must carry for bit-identical resume across a checkpoint taken
	// during the final memory drain.
	idleStreak int
	// restored marks a simulator populated by LoadState: Run then resumes
	// from the snapshot cycle instead of dispatching the grid from zero.
	restored bool
	// Maintenance schedule (checkpoints and invariant audits). nextMaint
	// is min(nextCkpt, nextAudit) so the run loop pays a single compare
	// per iteration; all three are ^uint64(0) when the knobs are off.
	nextCkpt  uint64
	nextAudit uint64
	nextMaint uint64

	// frSim is the simulator-level flight-recorder ring (nil when
	// Config.FlightRecorderDepth is zero).
	frSim *flightRing

	// smp drives the metrics time-series (nil when Config.SampleEvery is
	// zero); it runs on the main goroutine only, reading cumulative
	// counters at window boundaries. tr is the run's trace recorder (nil
	// when Config.TraceFile is empty): each SM writes its own shard, the
	// memory system writes the last one, all on determinism-safe paths.
	smp *sampler
	tr  *obs.Trace
}

// Interrupt asks a running Run to stop at the next poll point (every few
// thousand loop iterations). Safe to call from any goroutine; caba's
// context-aware entry points use it to implement deadlines without
// leaking the simulation goroutine.
func (sim *Simulator) Interrupt() { sim.interrupted.Store(true) }

// sharedLibrary is built once: routines are immutable.
var sharedLibrary = core.BuildLibrary()

// New builds a simulator. The caller populates memory (via Mem) and, for
// compressing designs, precompresses input buffers (via Dom.Precompress)
// before Run.
func New(cfg *config.Config, design config.Design, k *Kernel) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := k.Validate(cfg); err != nil {
		return nil, err
	}
	sim := &Simulator{
		Cfg:    cfg,
		Design: design,
		Kernel: k,
		Q:      &timing.Queue{},
		S:      &stats.Sim{},
		Mem:    mem.NewMemory(),
		AWS:    sharedLibrary,
	}
	sim.frSim = newFlightRing(cfg.FlightRecorderDepth)
	sim.Dom = mem.NewDomain(sim.Mem, design.Alg)
	sim.Sys = mem.NewSystem(cfg, design, sim.Q, sim.S, sim.Dom)
	sim.Sys.OnFill = func(smID int, lineAddr uint64, user any) {
		sim.sms[smID].onFill(lineAddr, user)
	}
	// Occupancy is computed without the assist-warp reservation: assist
	// warps live in the statically unallocated register space (Figure 2);
	// when that space is tight, the number of *concurrent* assist warps
	// shrinks rather than the parent occupancy (Section 3.2.2 gives the
	// designer both options; this is the one that avoids occupancy loss).
	assistRegs := 0
	if design.Decomp == config.DecompCABA || design.AssistUseCases() {
		assistRegs = sim.assistRegDemand()
	}
	sim.occ = ComputeOccupancy(cfg, k, 0)
	awtEntries := cfg.MaxWarpsPerSM
	if assistRegs > 0 {
		unallocated := cfg.RegFilePerSM - sim.occ.RegsAllocated
		byRegs := unallocated / (assistRegs * cfg.WarpSize)
		// Register-tight kernels still get a minimum assist-warp pool;
		// the compiler covers the shortfall with spills (Section 3.2.2).
		// The pool must roughly match the MSHR depth or decompression
		// queueing dominates fill latency.
		if byRegs < 16 {
			byRegs = 16
		}
		if byRegs < awtEntries {
			awtEntries = byRegs
		}
	}
	sim.awtEntries = awtEntries
	sim.sms = make([]*SM, cfg.NumSMs)
	for i := range sim.sms {
		sim.sms[i] = newSM(i, sim)
	}
	sim.wireObs()
	sim.S.RegsPerThread = k.Prog.NumReg
	sim.S.ThreadsPerSM = sim.occ.ThreadsPerSM
	sim.S.CTAsPerSM = sim.occ.CTAsPerSM
	sim.S.UnallocatedRegs = sim.occ.UnallocatedRegs
	sim.S.AssistRegsPerWarp = assistRegs
	return sim, nil
}

// assistRegDemand is the per-warp register reservation the compiler adds
// to the block requirement (Section 3.2.2): the largest register footprint
// over the routines this design's algorithm can trigger.
func (sim *Simulator) assistRegDemand() int {
	var ids []core.RoutineID
	var add func(alg compress.AlgID)
	add = func(alg compress.AlgID) {
		switch alg {
		case compress.AlgBDI:
			for enc := compress.BDIEncoding(0); enc < compress.BDINumEncodings; enc++ {
				ids = append(ids, core.RtBDIDecomp+core.RoutineID(enc))
			}
			ids = append(ids, core.RtBDICompSpecial)
			for _, enc := range core.BDICompTestOrder {
				ids = append(ids, core.RtBDICompTest+core.RoutineID(enc))
			}
		case compress.AlgFPC:
			ids = append(ids, core.RtFPCDecomp, core.RtFPCComp)
		case compress.AlgCPack:
			ids = append(ids, core.RtCPackDecomp, core.RtCPackComp)
		case compress.AlgBest:
			add(compress.AlgBDI)
			add(compress.AlgFPC)
			add(compress.AlgCPack)
		}
	}
	add(sim.Design.Alg)
	if sim.Design.Prefetching() {
		ids = append(ids, core.RtPrefetch)
	}
	if sim.Design.Memoizing() {
		ids = append(ids, core.RtMemoProbe, core.RtMemoSave)
	}
	max := 0
	for _, id := range ids {
		if rt, ok := sim.AWS.Get(id); ok && rt.Prog.NumReg > max {
			max = rt.Prog.NumReg
		}
	}
	return max
}

// Occupancy returns the static occupancy analysis for this run.
func (sim *Simulator) Occupancy() Occupancy { return sim.occ }

// FastForwardStats returns the number of clock jumps the fast-forward
// engine performed and the total cycles they covered.
func (sim *Simulator) FastForwardStats() (skips, cycles uint64) {
	return sim.ffSkips, sim.ffCycles
}

// DecompMismatches returns the racing-write counter (tests assert zero).
// The count lives in the per-SM shards, which survive the end-of-run fold.
func (sim *Simulator) DecompMismatches() uint64 {
	var n uint64
	for _, sm := range sim.sms {
		n += sm.stat.DecompMismatches
	}
	return n
}

// dispatch fills sm with CTAs while resources allow.
func (sim *Simulator) dispatch(sm *SM) {
	k := sim.Kernel
	warpsPer := k.WarpsPerCTA(sim.Cfg)
	for sim.nextCTA < k.GridCTAs &&
		len(sm.ctas) < sim.occ.CTAsPerSM &&
		sm.freeWarps() >= warpsPer {
		sm.placeCTA(sim.nextCTA)
		sim.nextCTA++
	}
}

// Run executes the kernel to completion (or the cycle cap) and finalizes
// statistics.
//
// Every elapsed cycle contributes its issue slots to the Figure 1
// breakdown (idle slots included), so SMs tick through stalls and the
// final memory drain. When Config.FastForward is set and every SM is
// provably unable to act, the skipped ticks are credited in bulk instead
// of executed — the statistics are bit-identical either way.
//
// Each cycle runs as a two-phase tick. Phase A ticks every SM — serially
// or on the worker pool, per Config.SMWorkers — with all shared-state
// effects staged per SM (outbox, write buffer, stat shard). Phase B, on
// the main goroutine, commits each SM's staged effects in ascending
// SM-index order and then lets the event queue deliver memory responses
// at the top of the next iteration. Staging runs identically at every
// worker count, so results are bit-identical regardless of SMWorkers.
func (sim *Simulator) Run(maxCycles uint64) (err error) {
	if maxCycles == 0 {
		maxCycles = 200_000_000
	}
	start := uint64(0)
	if sim.restored {
		// State came from LoadState: the grid is already (partially)
		// dispatched and the clock resumes at the snapshot cycle.
		start = sim.cycle
	} else {
		for _, sm := range sim.sms {
			sim.dispatch(sm)
		}
	}
	// The per-SM stat shards are folded into S exactly once, on every exit
	// path — success, error, or recovered panic (DecompMismatches stays
	// shard-resident). Declared before the recover defer so the fold still
	// runs while a panic unwinds.
	defer func() {
		for _, sm := range sim.sms {
			sim.S.AddShard(&sm.stat)
		}
	}()
	// Backstop for main-goroutine panics (event callbacks, commit): a
	// simulator bug must surface as a structured error, never escape
	// caba.Run. Worker-goroutine panics are caught by tickSafe.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gpu: internal panic at cycle %d: %v", sim.cycle, r)
		}
	}()
	wedgeLimit := int(sim.Cfg.WedgeLimit)
	if wedgeLimit <= 0 {
		wedgeLimit = defaultWedgeLimit
	}
	workers := sim.Cfg.SMWorkers
	if workers > len(sim.sms) {
		workers = len(sim.sms)
	}
	var pool *smPool
	if workers > 1 { // 0 and 1 tick serially on this goroutine
		pool = newSMPool(sim.sms, workers)
		defer pool.stop()
	}
	ff := sim.Cfg.FastForward
	if !sim.restored {
		sim.idleStreak = 0
	}
	const never = ^uint64(0)
	sim.nextCkpt, sim.nextAudit = never, never
	if sim.Cfg.CheckpointEvery > 0 && sim.OnCheckpoint != nil {
		sim.nextCkpt = start + sim.Cfg.CheckpointEvery
	}
	if sim.Cfg.AuditEvery > 0 {
		sim.nextAudit = start + sim.Cfg.AuditEvery
	}
	sim.nextMaint = min(sim.nextCkpt, sim.nextAudit)
	iter := 0
	for sim.cycle = start; sim.cycle < maxCycles; sim.cycle++ {
		// Maintenance runs before this cycle's events are delivered, so a
		// snapshot taken here restores to exactly this loop position. A
		// fast-forward jump that crosses a boundary lands the work at the
		// wake cycle; with both knobs at zero this is one dead compare.
		if sim.cycle >= sim.nextMaint {
			if err := sim.maintain(); err != nil {
				return err
			}
		}
		sim.Q.RunUntil(float64(sim.cycle))
		if err := sim.firstFatal(); err != nil {
			return err
		}
		iter++
		if iter&1023 == 0 && sim.interrupted.Load() {
			return fmt.Errorf("gpu: %w at cycle %d", ErrInterrupted, sim.cycle)
		}
		busy := false
		for _, sm := range sim.sms {
			if sm.hasWork() {
				busy = true
				break
			}
		}
		drainIdle := !busy && sim.nextCTA >= sim.Kernel.GridCTAs
		if drainIdle {
			if sim.Q.Len() == 0 && sim.Sys.Drained() {
				break
			}
			sim.idleStreak++
			if sim.idleStreak > wedgeLimit {
				return sim.wedged(&WedgeError{Cycle: sim.cycle, Drain: true})
			}
		} else {
			sim.idleStreak = 0
		}
		// Mid-run deadlock detection, only armed under fault injection
		// (the only source of lost responses): if SMs still hold work but
		// the event queue and memory system are empty and no SM can ever
		// act again on its own, the hang is converted into a structured
		// wedge error at the first such cycle — identical with
		// fast-forward on or off and at every SMWorkers setting.
		if sim.Sys.Inj != nil && busy && sim.Q.Len() == 0 && sim.Sys.Drained() &&
			sim.allWedged() {
			return sim.wedged(&WedgeError{Cycle: sim.cycle,
				Dropped: sim.S.ResponsesDropped})
		}
		if ff {
			if wake, ok := sim.ffWake(maxCycles); ok {
				skip := wake - sim.cycle // ticks credited: cycle .. wake-1
				if drainIdle && sim.idleStreak+int(skip-1) > wedgeLimit {
					// The wedge detector would fire inside the window:
					// credit exactly up to its firing cycle so the error
					// reports the same cycle as per-cycle ticking.
					fire := sim.cycle + uint64(wedgeLimit-sim.idleStreak) + 1
					sim.creditSkip(fire-sim.cycle, fire)
					sim.cycle = fire
					return sim.wedged(&WedgeError{Cycle: sim.cycle, Drain: true})
				}
				if sim.smp != nil {
					// Synthesize the samples the skipped ticks would have
					// recorded, before the bulk credit lands.
					sim.sampleSkip(wake)
				}
				sim.creditSkip(skip, wake)
				if drainIdle {
					sim.idleStreak += int(skip - 1)
				}
				// A fast-forward jump can cover millions of cycles in one
				// iteration, so the interrupt flag is checked per jump —
				// context cancellation stays prompt even mid-skip.
				if sim.interrupted.Load() {
					sim.cycle = wake
					sim.record("interrupted during fast-forward skip", 0)
					return fmt.Errorf("gpu: %w at cycle %d", ErrInterrupted, sim.cycle)
				}
				sim.cycle = wake - 1 // loop increment resumes at wake
				continue
			}
		}
		if pool != nil {
			pool.tick(sim.cycle) // phase A, concurrent
		} else {
			for _, sm := range sim.sms {
				sm.tickSafe(sim.cycle)
			}
		}
		for _, sm := range sim.sms {
			sim.commit(sm) // phase B, fixed SM-index order
		}
		if err := sim.firstFatal(); err != nil {
			return err
		}
		// Close the metrics window ending at the boundary this tick just
		// reached (cycle+1 cycles are now complete). Runs after the
		// commit barrier, on the main goroutine, reading only — obs on or
		// off cannot perturb the simulated statistics.
		if sim.smp != nil && sim.cycle+1 == sim.smp.next {
			sim.sample(sim.smp.next, 0)
		}
	}
	if sim.cycle >= maxCycles {
		return fmt.Errorf("gpu: exceeded %d cycles (deadlock or runaway kernel)", maxCycles)
	}
	if err := sim.firstFatal(); err != nil {
		return err
	}
	sim.Sys.FinishStats(sim.cycle)
	sim.S.L1Evictions = sim.l1Evictions()
	return nil
}

// maintain performs the scheduled maintenance due at the current cycle:
// the invariant audit, then the checkpoint (so a checkpoint is only taken
// from audited-clean state when both fire together). Neither mutates
// simulated state, so cadence never affects results. FF jumps may cross
// several boundaries at once; each duty fires once, at the wake cycle.
func (sim *Simulator) maintain() error {
	if sim.cycle >= sim.nextAudit {
		if err := sim.Audit(); err != nil {
			return err
		}
		sim.record("audit passed", 0)
		for sim.nextAudit <= sim.cycle {
			sim.nextAudit += sim.Cfg.AuditEvery
		}
	}
	if sim.cycle >= sim.nextCkpt {
		blob, err := sim.SaveState()
		if err != nil {
			return err
		}
		if err := sim.OnCheckpoint(sim.cycle, blob); err != nil {
			return fmt.Errorf("gpu: checkpoint at cycle %d: %w", sim.cycle, err)
		}
		sim.record("checkpoint saved", 0)
		for sim.nextCkpt <= sim.cycle {
			sim.nextCkpt += sim.Cfg.CheckpointEvery
		}
	}
	sim.nextMaint = min(sim.nextCkpt, sim.nextAudit)
	return nil
}

// wedged attaches the flight-recorder trail to a wedge error.
func (sim *Simulator) wedged(we *WedgeError) error {
	sim.record("wedge detected", 0)
	we.Trail = sim.FlightRecord()
	return we
}

// firstFatal returns the lowest-indexed SM's recorded fatal error, if any.
// The fixed scan order keeps the surfaced error identical at every
// SMWorkers setting.
func (sim *Simulator) firstFatal() error {
	for _, sm := range sim.sms {
		if sm.fatal != nil {
			return sm.fatal
		}
	}
	return nil
}

// allWedged reports whether every SM is quiescent with no self-wake
// horizon — i.e. nothing in the machine can ever act again without a
// memory-system event, and the caller has established that no events are
// pending. It seeds the per-SM quiescence caches exactly as ffWake does.
func (sim *Simulator) allWedged() bool {
	for _, sm := range sim.sms {
		if !sm.quiet(sim.cycle, true) || sm.qHorizon != ^uint64(0) {
			return false
		}
	}
	return true
}

// commit is phase B for one SM: flush its staged functional stores, replay
// its outbox into the crossbar/Domain/event queue, and run any deferred
// CTA dispatch. Called in ascending SM-index order, which is the
// crossbar's port-arbitration order. The staging defines the model's
// semantics: an SM's stores, metadata writes and dispatches become
// visible to other SMs at the end of the cycle, not during it. That is
// not what a serial loop applying effects mid-tick computes — bypassing
// the staging that way moved PVC at scale 0.15 (seed 1) from 59049 to
// 60469 cycles on CABA-BDI and from 72794 to 72504 on Base (DESIGN.md §8).
func (sim *Simulator) commit(sm *SM) {
	if !sm.wbuf.Empty() {
		sm.wbuf.Flush()
	}
	if !sm.outbox.Empty() {
		sim.Sys.CommitOutbox(&sm.outbox)
	}
	if sm.wantDispatch {
		sm.wantDispatch = false
		sim.dispatch(sm)
	}
}

// ffWake computes the fast-forward wake cycle: the earliest future cycle
// at which any SM could act, bounded by the next memory-system event and
// the cycle cap. ok is false when some SM can act this cycle (no skip) or
// the window is too short to be worth skipping.
func (sim *Simulator) ffWake(maxCycles uint64) (uint64, bool) {
	wake := maxCycles
	if t, qok := sim.Q.NextTime(); qok {
		// An event at time T affects tick(ceil(T)) at the earliest: events
		// run during RunUntil at the top of that iteration.
		if w := uint64(math.Ceil(t)); w < wake {
			wake = w
		}
	}
	if wake <= sim.cycle+1 {
		return 0, false
	}
	for _, sm := range sim.sms {
		// Reuse the SM's quiescence cache when it is still valid; a fresh
		// verdict seeds it for the per-SM tick fast path even when the
		// global skip below turns out to be too short.
		if !sm.quiet(sim.cycle, true) {
			return 0, false
		}
		wake = min(wake, sm.qHorizon)
	}
	if wake <= sim.cycle+1 {
		return 0, false
	}
	return wake, true
}

// creditSkip applies the bulk stall accounting for n skipped ticks
// (cycles sim.cycle .. wake-1): every SM credits them from its quiescence
// cache, the same credit the per-SM tick fast path applies one tick at a
// time, and its clock moves to wake-1 exactly as if tick(wake-1) had run.
func (sim *Simulator) creditSkip(n, wake uint64) {
	for _, sm := range sim.sms {
		sm.creditQuiet(n, wake-1)
	}
	sim.ffSkips++
	sim.ffCycles += n
}

func (sim *Simulator) l1Evictions() uint64 {
	var n uint64
	for _, sm := range sim.sms {
		n += sm.l1.Evictions
	}
	return n
}

// Cycles returns the completed cycle count.
func (sim *Simulator) Cycles() uint64 { return sim.cycle }
