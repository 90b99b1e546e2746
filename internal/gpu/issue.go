package gpu

// The issue stage: each scheduler slot's pick among the high-priority
// assist warps, the GTO warp order and the idle-cycle low-priority assist
// warps; the per-candidate hazard check behind Figure 1's stall taxonomy;
// and the fast-forward quiescence proof, which runs the same checks
// without issuing.

import (
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
)

// hazard is one issue candidate's verdict from checkHazard. kind is
// stats.Active when the instruction can issue; otherwise it is the
// Figure 1 flag the candidate raises (DataDepStall, MemoryStall or
// ComputeStall). cause is the stall-attribution cause. until is the cycle
// the hazard clears on the SM's own clock, or ^uint64(0) when only a
// pipeline writeback or a memory-system event clears it (the quiescence
// proof bounds those separately).
type hazard struct {
	kind  stats.StallKind
	cause obs.Cause
	until uint64
}

// checkHazard checks whether in, the next instruction of an issue
// candidate with scoreboard sb, can issue at cycle: the scoreboard, the
// LSU and SFU time gates, a full store buffer, and the warp's replay slot.
// w is the candidate warp, or nil for an assist warp (which has no replay
// slot). aluOut and lsuOut report that this cycle's per-tick ALU or LSU
// ports are used up; only the tick knows, so quiescent, which runs before
// the tick resets the counters, passes false.
func (sm *SM) checkHazard(cycle uint64, in *isa.Superop, sb *regMask, w *warpCtx, aluOut, lsuOut bool) hazard {
	const never = ^uint64(0)
	if sb.ConflictsSop(in) {
		c := obs.CauseScoreboard
		if w != nil {
			c = sm.depCause(w)
		}
		return hazard{stats.DataDepStall, c, never}
	}
	switch in.Class {
	case isa.ClassMem:
		if lsuOut || cycle < sm.lsuFree {
			return hazard{stats.MemoryStall, obs.CauseLSUBusy, max(sm.lsuFree, cycle+1)}
		}
		if in.GlobalMem && in.StoreOp &&
			len(sm.storeBuf) >= storeBufCap && !sm.canEvictStore() {
			// Unblocks only via compression/RMW completion events.
			return hazard{stats.MemoryStall, obs.CauseStoreBufFull, never}
		}
		// One load at a time may sit in the replay queue per warp: a
		// second global access waits for the first's MSHR-overflow lines,
		// which drain via fill events or the LSU gate.
		if in.GlobalMem && w != nil && w.replay != nil {
			return hazard{stats.MemoryStall, sm.mshrCause(), never}
		}
	case isa.ClassSFU:
		if cycle < sm.sfuFree {
			return hazard{stats.ComputeStall, obs.CauseSFUBusy, sm.sfuFree}
		}
	case isa.ClassALU:
		if aluOut {
			return hazard{stats.ComputeStall, obs.CauseALUBusy, cycle + 1}
		}
	}
	return hazard{kind: stats.Active}
}

// slotFlags records why candidates could not issue, for Figure 1's
// classification. raised holds one flag per stall kind.
type slotFlags struct {
	raised [stats.NumStallKinds]bool

	// Attribution blame, filled only when blame is armed (initBlame): for
	// each raised flag, the first candidate warp that raised it — in
	// scheduler visit order — and its specific structural cause.
	// barW/drainW/idleAW back the idle-slot precedence (barrier > drain >
	// blocked low-priority assist > empty SM).
	blame        bool
	blameW       [stats.NumStallKinds]int
	blameC       [stats.NumStallKinds]obs.Cause
	barW, drainW int
	idleAW       int
}

// note raises the flag of a candidate's hazard kind and, with blame
// armed, records (warp, c) as its blame if no earlier candidate raised
// it. Active and IdleCycle raise nothing.
func (f *slotFlags) note(warp int, kind stats.StallKind, c obs.Cause) {
	if kind == stats.Active || kind == stats.IdleCycle {
		return
	}
	f.raised[kind] = true
	if f.blame && f.blameW[kind] < 0 {
		f.blameW[kind], f.blameC[kind] = warp, c
	}
}

// classify maps a slot's accumulated hazard flags to Figure 1's stall
// kind. The precedence — Memory over Compute over DataDep over Idle — is
// deliberate and load-bearing: a slot that saw both a memory-blocked and
// a scoreboard-blocked candidate counts as a memory stall, matching the
// paper's taxonomy (the memory system is the resource whose recovery
// would have let the slot issue soonest). issueSlot and quiescent both
// classify through this single function, and the per-warp stall
// attribution charges along the same precedence, so attribution totals
// always reconcile exactly with the IssueSlots counters.
func classify(f *slotFlags) stats.StallKind {
	switch {
	case f.raised[stats.MemoryStall]:
		return stats.MemoryStall
	case f.raised[stats.ComputeStall]:
		return stats.ComputeStall
	case f.raised[stats.DataDepStall]:
		return stats.DataDepStall
	default:
		return stats.IdleCycle
	}
}

// issueSlot tries to issue one instruction and classifies the slot. A
// slot that issues nothing is classified by classify and, when
// attribution is on, charged to exactly one (warp, cause) pair via
// chargeSlot.
func (sm *SM) issueSlot() stats.StallKind {
	var f slotFlags
	if sm.attr != nil {
		f.initBlame()
	}

	// High-priority assist warps issue with precedence (Section 3.2.3):
	// they are the fill critical path that blocked warps are waiting on,
	// and killing their latency is what keeps CABA competitive with
	// dedicated logic. Their blame lands on the host warp slot.
	for _, e := range sm.awc.Entries() {
		if e.Pri == core.PriHigh && e.Staged > 0 {
			ok, h := sm.tryIssueAssist(e)
			if ok {
				return stats.Active
			}
			f.note(e.Warp, h.kind, obs.CauseAssist)
		}
	}

	// GTO: greedy on the last warp, then oldest (least-recently issued).
	if g := sm.greedy; g != nil && g.valid && sm.tryWarp(g, &f) {
		return stats.Active
	}
	for _, wi := range sm.order {
		w := sm.warps[wi]
		if w == sm.greedy {
			continue
		}
		if sm.tryWarp(w, &f) {
			sm.greedy = w
			return stats.Active
		}
	}

	// Idle slot: low-priority assist warps (Section 3.2.3 — scheduled
	// only during idle cycles).
	for _, e := range sm.awc.LowEntries() {
		if e.Staged == 0 {
			continue
		}
		if ok, _ := sm.tryIssueAssist(e); ok {
			return stats.Active
		}
		if f.blame && f.idleAW < 0 {
			f.idleAW = e.Warp
		}
	}

	kind := classify(&f)
	if sm.attr != nil {
		sm.chargeSlot(kind, &f)
	}
	return kind
}

// tryWarp attempts to issue warp w's next instruction and, when it
// cannot, notes the hazard that blocked it in f. (High-priority assist
// warps, which take precedence over their parents, were already tried by
// issueSlot.)
func (sm *SM) tryWarp(w *warpCtx, f *slotFlags) bool {
	if !w.valid {
		return false
	}
	// Replay verdicts already proven: a dependence failure (and its blame
	// pair) holds until one of this warp's scoreboard bits clears; a
	// done/at-barrier verdict holds until a barrier release or a fresh
	// CTA placement.
	if w.depStalled {
		f.note(w.id, stats.DataDepStall, sm.depCause(w))
		return false
	}
	if w.idle {
		if f.blame {
			f.noteIdleWarp(w)
		}
		return false
	}
	in := w.exec.CurrentSop()
	if in == nil {
		// Done or at barrier: contributes to idle.
		w.idle = true
		if f.blame {
			f.noteIdleWarp(w)
		}
		return false
	}
	h := sm.checkHazard(sm.cycle, in, &w.sb, w, sm.aluPorts == 0, sm.lsuPorts == 0)
	switch {
	case h.kind == stats.Active:
		sm.issueRegular(w, in)
		return true
	case h.kind == stats.DataDepStall:
		w.depStalled = true
	case h.cause == obs.CauseSFUBusy && sm.memo != nil && sm.tryMemoIssue(w, in):
		// A saturated SFU port is exactly where the memoization use case
		// adds throughput: a result-cache hit issues through a probe
		// assist instead of waiting for the port.
		return true
	}
	f.note(w.id, h.kind, h.cause)
	return false
}

// tryIssueAssist issues one staged instruction of an assist warp. When
// it cannot, h is the hazard that blocked it; h.kind is stats.Active
// when the entry simply had nothing to issue.
func (sm *SM) tryIssueAssist(e *core.Entry) (ok bool, h hazard) {
	in := e.Exec.CurrentSop()
	if in == nil || e.Staged == 0 {
		return false, h
	}
	if h = sm.checkHazard(sm.cycle, in, &e.SB, nil, sm.aluPorts == 0, sm.lsuPorts == 0); h.kind != stats.Active {
		return false, h
	}
	info, stepped := e.Exec.StepRef()
	if !stepped {
		return false, h
	}
	// A routine error (e.g. an out-of-range stage store while chewing on a
	// corrupted payload) marks the exec Done; the entry drains through the
	// normal writeback path and its completion callback sees Exec.Err —
	// the fault-detection path for injected corruption, a fatal error
	// otherwise. No special handling is needed here.
	e.Staged--
	sm.awc.NoteConsumed()
	if e.Exec.Done {
		e.Staged = 0 // discard over-staged slots past the routine's end
	}
	sm.stat.AssistInstrs++
	sm.countClass(in)

	lat := uint64(sm.sim.Cfg.ALULatency)
	switch in.Class {
	case isa.ClassALU:
		sm.aluPorts--
	case isa.ClassSFU:
		sm.sfuFree = sm.cycle + 4
		lat = uint64(sm.sim.Cfg.SFULatency)
	case isa.ClassMem:
		sm.lsuPorts--
		lat = uint64(sm.sim.Cfg.L1Latency)
		if in.GlobalMem {
			// Assist-warp global access (prefetch routine): goes through
			// the normal memory path without blocking the assist warp's
			// completion on the fill.
			for _, ln := range coalesceInto(&sm.awLineBuf, &info.Addrs, info.ExecMask, sm.sim.Cfg.LineSize) {
				if sm.l1.Lookup(ln, false) {
					sm.stat.L1Hits++
					continue
				}
				sm.stat.L1Misses++
				primary, _ := sm.mshr.Add(ln, (*loadReq)(nil))
				if primary {
					if sm.tr != nil {
						sm.traceMSHRBegin(ln)
					}
					if sm.pf != nil {
						sm.pf.lines++ // prefetch-held MSHR entry until its fill
					}
					sm.sysReadLine(ln, &fillCtx{kind: fillAssist})
				}
			}
		}
	}
	e.SB.MarkSop(in)
	e.Outstanding++
	sm.wbAdd(sm.cycle+lat, wbRec{kind: wbAssist, sop: in, e: e})
	sm.checkAssistDone(e)
	return true, h
}

// rebuildOrder maintains the GTO scheduling order (oldest-first, stable
// on warp slot) incrementally: a full filter+sort only after validity
// changes (orderDirty); otherwise each warp that issued last tick is
// re-placed at the back, which reproduces the stable sort exactly —
// issued warps share the previous tick's (maximal) issue cycle, and ties
// within that group are restored to slot order.
func (sm *SM) rebuildOrder() {
	if sm.orderDirty {
		sm.orderDirty = false
		sm.issuedBuf = sm.issuedBuf[:0]
		sm.order = sm.order[:0]
		for i, w := range sm.warps {
			if w.valid {
				sm.order = append(sm.order, int32(i))
			}
		}
		cyc := func(wi int32) uint64 { return sm.warps[wi].lastIssueCycle }
		for i := 1; i < len(sm.order); i++ {
			for j := i; j > 0 && cyc(sm.order[j]) < cyc(sm.order[j-1]); j-- {
				sm.order[j], sm.order[j-1] = sm.order[j-1], sm.order[j]
			}
		}
		return
	}
	if len(sm.issuedBuf) > 0 {
		for _, w := range sm.issuedBuf {
			sm.orderMoveToBack(w)
		}
		sm.issuedBuf = sm.issuedBuf[:0]
	}
}

// orderMoveToBack re-places w (which just issued, so its lastIssueCycle is
// maximal) at the back of the GTO order, keeping equal-cycle ties in warp
// slot order.
func (sm *SM) orderMoveToBack(w *warpCtx) {
	id := int32(w.id)
	pos := -1
	for i, o := range sm.order {
		if o == id {
			pos = i
			break
		}
	}
	if pos < 0 {
		return
	}
	n := len(sm.order)
	copy(sm.order[pos:], sm.order[pos+1:])
	k := n - 1
	for k > pos {
		p := sm.warps[sm.order[k-1]]
		if p.lastIssueCycle != w.lastIssueCycle || p.id <= w.id {
			break
		}
		sm.order[k] = sm.order[k-1]
		k--
	}
	sm.order[k] = id
}

// --- Quiescence proof (fast-forward) ---

// quiescent reports whether tick(cycle) would be a pure stall-accounting
// no-op for this SM — nothing can issue, retire, drain or deploy — and if
// so records the verdict: qKind, the stall kind each of its issue slots
// would record; qHorizon; and, with attribution on, the blame pair. It
// asks each tick stage the question that stage's own code asks
// (checkHazard, ctaCtx.retirable, drainDue, replayReady), so a new hazard
// needs no second copy here. qHorizon is the earliest future cycle at
// which this SM's own state can make a tick act again (pipeline
// writeback, LSU/SFU port release, store-buffer aging); ^uint64(0) when
// the SM is waiting purely on memory-system events. The fast-forward
// engine may then skip ticks up to min(qHorizon, next event) while
// crediting qKind in bulk, with results bit-identical to per-cycle
// ticking.
func (sm *SM) quiescent(cycle uint64) bool {
	horizon := ^uint64(0)

	// Assist-warp machinery in flight advances state every tick (retries,
	// AWC deployment, round-robin rotation).
	if len(sm.decompRetry) > 0 || !sm.awc.Idle() {
		return false
	}
	// A writeback due this very tick acts; later ones bound the window.
	if len(sm.wbRing[cycle&sm.wbMask]) > 0 {
		return false
	}
	if wb, any := sm.wbNext(cycle); any {
		horizon = wb
	}
	// Replay queue: progress this tick means not quiescent; otherwise it
	// is gated on the LSU (horizon) or a fill event freeing the MSHR
	// (covered by the event-queue bound).
	if len(sm.replayQ) > 0 {
		if sm.replayReady(cycle) {
			return false
		}
		if cycle < sm.lsuFree {
			horizon = min(horizon, sm.lsuFree)
		}
	}
	// A retirable CTA means the tick would retire it and dispatch work.
	for _, cta := range sm.ctas {
		if cta.retirable() {
			return false
		}
	}
	// Store buffer: a due drain acts now; future aging bounds the window.
	for _, se := range sm.storeBuf {
		if sm.drainDue(se, cycle) {
			return false
		}
		if se.state == sbPending {
			horizon = min(horizon, se.lastTouch+storeDrainAge)
		}
	}
	// Warps: any candidate without a hazard would issue.
	var f slotFlags
	if sm.attr != nil {
		f.initBlame()
	}
	for _, w := range sm.warps {
		if !w.valid {
			continue
		}
		// The tick's cached verdicts (warpCtx.depStalled, warpCtx.idle)
		// hold here too and spare most candidates the full check.
		if w.depStalled {
			f.note(w.id, stats.DataDepStall, sm.depCause(w))
			continue
		}
		var in *isa.Superop
		if !w.idle {
			in = w.exec.CurrentSop()
		}
		if in == nil {
			// Done or at barrier: contributes to idle.
			if f.blame {
				f.noteIdleWarp(w)
			}
			continue
		}
		h := sm.checkHazard(cycle, in, &w.sb, w, false, false)
		// With memoization on, a busy SFU port is not a stall: the live
		// tick may issue this warp through the probe path.
		if h.kind == stats.Active || (h.cause == obs.CauseSFUBusy && sm.memo != nil) {
			return false
		}
		f.note(w.id, h.kind, h.cause)
		horizon = min(horizon, h.until)
	}
	sm.qKind, sm.qHorizon = classify(&f), horizon
	if f.blame {
		sm.qBlameW, sm.qBlameC = blameFor(sm.qKind, &f)
	}
	return true
}

// quiet reports whether a proven quiescence verdict covers cycle. A
// verdict whose horizon has passed is dropped; a missing one is proven
// afresh with quiescent when prove is set.
func (sm *SM) quiet(cycle uint64, prove bool) bool {
	if !sm.qValid || cycle >= sm.qHorizon {
		sm.qValid = prove && sm.quiescent(cycle)
	}
	return sm.qValid
}

// creditQuiet credits n ticks of the cached quiescence verdict, the last
// of them at cycle last: every issue slot records qKind and is charged to
// the cached blame pair, the AWC utilization window advances by the same
// idle slots, and the SM clock moves to last, exactly as if the ticks had
// run.
func (sm *SM) creditQuiet(n, last uint64) {
	slots := n * uint64(sm.sim.Cfg.NumSchedulers)
	sm.stat.IssueSlots[sm.qKind] += slots
	if sm.attr != nil {
		sm.attr.Charge(sm.qBlameW, sm.qBlameC, slots)
	}
	sm.awc.NoteIdleSlots(int(slots))
	sm.cycle = last
}
