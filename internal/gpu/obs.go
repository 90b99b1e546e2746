package gpu

// Observability glue: the metrics sampler, per-warp stall attribution,
// and trace-span recording for the simulator. Everything here is a pure
// observer — nil-gated at every call site, reading machine state without
// mutating it — so the simulated statistics are bit-identical whether
// the knobs are on or off, at every SMWorkers setting, with or without
// fast-forward, and across snapshot/restore.

import (
	"fmt"

	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/stats"
)

// Trace track-id namespaces within an SM's shard: warp-lifetime spans
// use the warp slot index directly; assist-warp and MSHR spans get
// free-list-allocated tracks in disjoint ranges so per-track begin/end
// pairs never interleave.
const (
	trackAWBase   = 1000
	trackMSHRBase = 2000
)

// initBlame arms a slotFlags for attribution: blamed-warp fields start
// at -1 (unset) so the first flagged candidate in scheduler visit order
// wins deterministically.
func (f *slotFlags) initBlame() {
	f.blame = true
	for k := range f.blameW {
		f.blameW[k] = -1
	}
	f.barW, f.drainW, f.idleAW = -1, -1, -1
}

// blameFor resolves which (warp, cause) pair an unissued slot of the
// given classification is charged to. For stall kinds it is the first
// candidate that raised the classified flag; for idle slots the
// precedence is barrier > drain > blocked low-priority assist > empty
// SM (charged to the SM row as warp -1).
func blameFor(kind stats.StallKind, f *slotFlags) (int, obs.Cause) {
	switch {
	case kind != stats.IdleCycle:
		return f.blameW[kind], f.blameC[kind]
	case f.barW >= 0:
		return f.barW, obs.CauseBarrier
	case f.drainW >= 0:
		return f.drainW, obs.CauseDrain
	case f.idleAW >= 0:
		return f.idleAW, obs.CauseAssist
	default:
		return -1, obs.CauseEmpty
	}
}

// chargeSlot charges one unissued issue slot to exactly one (warp,
// cause) pair, derived from the slot's final classification so the
// attribution tables sum exactly to the non-Active IssueSlots counters.
func (sm *SM) chargeSlot(kind stats.StallKind, f *slotFlags) {
	w, c := blameFor(kind, f)
	sm.attr.Charge(w, c, 1)
}

// noteIdleWarp records a valid warp with no current instruction for idle
// blame: parked at a barrier, or drained (done, CTA not yet retired).
func (f *slotFlags) noteIdleWarp(w *warpCtx) {
	if w.exec.AtBarrier {
		if f.barW < 0 {
			f.barW = w.id
		}
	} else if f.drainW < 0 {
		f.drainW = w.id
	}
}

// --- Trace-span recording (all methods assume sm.tr != nil) ---

// traceWarpBegin opens the lifetime span of a warp just placed by
// placeCTA; the track is the warp's slot index.
func (sm *SM) traceWarpBegin(w *warpCtx, ctaID int) {
	sm.tr.Begin(sm.cycle, w.id, fmt.Sprintf("cta %d", ctaID), "warp")
}

// traceWarpEnd closes a warp's lifetime span when its CTA retires.
func (sm *SM) traceWarpEnd(w *warpCtx) {
	sm.tr.End(sm.cycle, w.id)
}

// traceAssistBegin opens an assist warp's spawn→complete span. cat keys
// the trigger kind (assistTraceCat: "fill-decompress",
// "writeback-compress", "ecc-check", ...) so the timeline separates the
// high-priority fill path from the idle-cycle compression path.
func (sm *SM) traceAssistBegin(e *core.Entry, cat string) {
	tid := sm.trAWNext
	if n := len(sm.trAWFree); n > 0 {
		tid = sm.trAWFree[n-1]
		sm.trAWFree = sm.trAWFree[:n-1]
	} else {
		sm.trAWNext++
		sm.tr.ThreadName(trackAWBase+tid, fmt.Sprintf("assist %d", tid))
	}
	sm.trAW[e] = tid
	sm.tr.Begin(sm.cycle, trackAWBase+tid, e.Routine.Name, cat)
}

// traceAssistEnd closes an assist warp's span at retirement and recycles
// its track.
func (sm *SM) traceAssistEnd(e *core.Entry) {
	tid, ok := sm.trAW[e]
	if !ok {
		return
	}
	delete(sm.trAW, e)
	sm.trAWFree = append(sm.trAWFree, tid)
	sm.tr.End(sm.cycle, trackAWBase+tid)
}

// traceMSHRBegin opens an allocate→fill span for a line that just took a
// primary MSHR entry.
func (sm *SM) traceMSHRBegin(ln uint64) {
	if _, dup := sm.trMSHR[ln]; dup {
		return
	}
	tid := sm.trMSHRNext
	if n := len(sm.trMSHRFree); n > 0 {
		tid = sm.trMSHRFree[n-1]
		sm.trMSHRFree = sm.trMSHRFree[:n-1]
	} else {
		sm.trMSHRNext++
		sm.tr.ThreadName(trackMSHRBase+tid, fmt.Sprintf("mshr %d", tid))
	}
	sm.trMSHR[ln] = tid
	sm.tr.Begin(sm.cycle, trackMSHRBase+tid, "miss", "mshr")
}

// traceMSHREnd closes a line's allocate→fill span when the fill installs
// it.
func (sm *SM) traceMSHREnd(ln uint64) {
	tid, ok := sm.trMSHR[ln]
	if !ok {
		return
	}
	delete(sm.trMSHR, ln)
	sm.trMSHRFree = append(sm.trMSHRFree, tid)
	sm.tr.End(sm.cycle, trackMSHRBase+tid)
}

// assistTraceCat derives the trace category for an AWT entry from its
// routine. Both launchAssist and the spans re-opened after a snapshot
// restore use it, so the two always agree.
func assistTraceCat(rt *core.Routine) string {
	switch {
	case rt.ID == core.RtECCCheck:
		return "ecc-check"
	case rt.ID == core.RtPrefetch:
		return "prefetch"
	case rt.ID == core.RtMemoProbe:
		return "memo-probe"
	case rt.ID == core.RtMemoSave:
		return "memo-update"
	case rt.Priority == core.PriHigh:
		return "fill-decompress"
	default:
		return "writeback-compress"
	}
}

// --- Metrics sampler ---

// obsTotals is a cumulative snapshot of the counters the sampler
// windows over. Totals fold sim.S (which holds the memory-side counters)
// with every per-SM shard (which holds the issue-slot counters, fast-forward
// bulk credits included), so they are exact in all engine modes.
type obsTotals struct {
	instrs   uint64
	issue    [stats.NumStallKinds]uint64
	l1h, l1m uint64
	l2h, l2m uint64
	dramBusy uint64
}

// sampler drives the metrics time-series: it closes a window every
// `every` cycles (on the main goroutine, after the phase-B commit) and
// appends one Sample of windowed rates and instantaneous gauges. prev
// carries the previous boundary's totals; next is the next boundary
// cycle. All fields serialize into snapshots so a resumed run emits the
// identical series.
type sampler struct {
	every     uint64
	next      uint64
	prevCycle uint64
	prev      obsTotals
	series    obs.Series
}

// gather folds the current cumulative counters. extraTicks synthesizes a
// mid-skip boundary during fast-forward: each SM is credited with
// extraTicks × schedulers slots of its cached quiescent classification —
// exactly what per-cycle ticking would have accumulated by then, since a
// skip window is a proven accounting no-op.
func (sim *Simulator) gather(extraTicks uint64) obsTotals {
	t := obsTotals{
		instrs:   sim.S.ThreadInstrs,
		issue:    sim.S.IssueSlots,
		l1h:      sim.S.L1Hits,
		l1m:      sim.S.L1Misses,
		l2h:      sim.S.L2Hits,
		l2m:      sim.S.L2Misses,
		dramBusy: sim.S.DRAMBusyCycles,
	}
	sched := uint64(sim.Cfg.NumSchedulers)
	for _, sm := range sim.sms {
		t.instrs += sm.stat.ThreadInstrs
		for k := range t.issue {
			t.issue[k] += sm.stat.IssueSlots[k]
		}
		t.l1h += sm.stat.L1Hits
		t.l1m += sm.stat.L1Misses
		if extraTicks > 0 {
			t.issue[sm.qKind] += extraTicks * sched
		}
	}
	return t
}

// sample closes the window ending at cycle boundary t and appends the
// row. extraTicks is non-zero only for boundaries synthesized inside a
// fast-forward skip (see gather).
func (sim *Simulator) sample(t, extraTicks uint64) {
	smp := sim.smp
	cur := sim.gather(extraTicks)
	dc := t - smp.prevCycle
	row := obs.Sample{Cycle: t}
	if dc > 0 {
		row.IPC = float64(cur.instrs-smp.prev.instrs) / float64(dc)
		slots := float64(dc) * float64(sim.Cfg.NumSchedulers) * float64(len(sim.sms))
		row.IssueActive = float64(cur.issue[stats.Active]-smp.prev.issue[stats.Active]) / slots
		row.IssueComp = float64(cur.issue[stats.ComputeStall]-smp.prev.issue[stats.ComputeStall]) / slots
		row.IssueMem = float64(cur.issue[stats.MemoryStall]-smp.prev.issue[stats.MemoryStall]) / slots
		row.IssueDep = float64(cur.issue[stats.DataDepStall]-smp.prev.issue[stats.DataDepStall]) / slots
		row.IssueIdle = float64(cur.issue[stats.IdleCycle]-smp.prev.issue[stats.IdleCycle]) / slots
		if h, m := cur.l1h-smp.prev.l1h, cur.l1m-smp.prev.l1m; h+m > 0 {
			row.L1HitRate = float64(h) / float64(h+m)
		}
		if h, m := cur.l2h-smp.prev.l2h, cur.l2m-smp.prev.l2m; h+m > 0 {
			row.L2HitRate = float64(h) / float64(h+m)
		}
		// Window data-bus capacity in burst slots: elapsed core cycles ×
		// clock ratio × channels (the same identity FinishStats uses for
		// the whole run).
		cap := float64(dc) * sim.Cfg.MemCyclesPerCoreCycle() * float64(sim.Cfg.NumChannels)
		if cap > 0 {
			row.DRAMBusy = float64(cur.dramBusy-smp.prev.dramBusy) / cap
		}
	}
	var mshrOut, awOut int
	for _, sm := range sim.sms {
		mshrOut += sm.mshr.Outstanding()
		awOut += len(sm.awc.Entries())
	}
	if d := len(sim.sms) * sim.Cfg.L1MSHRs; d > 0 {
		row.MSHROcc = float64(mshrOut) / float64(d)
	}
	if d := len(sim.sms) * sim.awtEntries; d > 0 {
		row.AWOcc = float64(awOut) / float64(d)
	}
	if sim.S.Ratio.Lines > 0 {
		row.CompRatio = sim.S.Ratio.Value()
	}
	smp.series.Append(row)
	smp.prev, smp.prevCycle = cur, t
	smp.next = t + smp.every
}

// sampleSkip synthesizes the samples for every boundary a fast-forward
// skip will cross. Called with sim.cycle still at the skip start,
// before creditSkip: inside the window no event fires and every SM's
// per-tick contribution is its cached quiescent classification, so the
// boundary-t totals are the pre-skip totals plus (t − skipStart) ticks
// of linear credit — bit-identical to the rows per-cycle ticking would
// have recorded.
func (sim *Simulator) sampleSkip(wake uint64) {
	for t := sim.smp.next; t <= wake; t += sim.smp.every {
		sim.sample(t, t-sim.cycle)
	}
}

// save serializes the sampler state (cadence cursor, previous-boundary
// totals, recorded rows) into a snapshot payload.
func (smp *sampler) save(w *snapshot.Writer) {
	w.U64(smp.next)
	w.U64(smp.prevCycle)
	w.U64(smp.prev.instrs)
	for _, v := range smp.prev.issue {
		w.U64(v)
	}
	w.U64(smp.prev.l1h)
	w.U64(smp.prev.l1m)
	w.U64(smp.prev.l2h)
	w.U64(smp.prev.l2m)
	w.U64(smp.prev.dramBusy)
	smp.series.Save(w)
}

// load restores sampler state saved by save.
func (smp *sampler) load(r *snapshot.Reader) error {
	smp.next = r.U64()
	smp.prevCycle = r.U64()
	smp.prev.instrs = r.U64()
	for k := range smp.prev.issue {
		smp.prev.issue[k] = r.U64()
	}
	smp.prev.l1h = r.U64()
	smp.prev.l1m = r.U64()
	smp.prev.l2h = r.U64()
	smp.prev.l2m = r.U64()
	smp.prev.dramBusy = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	return smp.series.Load(r)
}

// --- Wiring and accessors ---

// wireObs builds the enabled observability sinks for a freshly
// constructed simulator: the sampler, the per-SM attribution tables, and
// the trace with its per-SM shards and track labels.
func (sim *Simulator) wireObs() {
	cfg := sim.Cfg
	if cfg.SampleEvery > 0 {
		sim.smp = &sampler{every: cfg.SampleEvery, next: cfg.SampleEvery}
	}
	if cfg.AttributeStalls {
		for _, sm := range sim.sms {
			sm.attr = obs.NewAttr(cfg.MaxWarpsPerSM)
		}
	}
	if cfg.TraceFile != "" {
		sim.tr = obs.NewTrace(cfg.NumSMs)
		for i, sm := range sim.sms {
			sm.tr = sim.tr.SM(i)
			sm.trAW = make(map[*core.Entry]int)
			sm.trMSHR = make(map[uint64]int)
			for w := 0; w < cfg.MaxWarpsPerSM; w++ {
				sm.tr.ThreadName(w, fmt.Sprintf("warp %d", w))
			}
		}
		sim.Sys.AttachTrace(sim.tr.Mem())
	}
}

// reopenTraceSpans re-opens begin events for every entity that is live
// in a just-restored snapshot — valid warps, AWT entries, outstanding
// MSHR lines — so a resumed run's trace closes cleanly and passes schema
// validation. The resumed trace covers restore→end; DRAM spans are
// self-contained 'X' events and need nothing.
func (sim *Simulator) reopenTraceSpans() {
	if sim.tr == nil {
		return
	}
	for _, sm := range sim.sms {
		for _, w := range sm.warps {
			if w.valid {
				sm.traceWarpBegin(w, w.cta.id)
			}
		}
		for _, e := range sm.awc.Entries() {
			sm.traceAssistBegin(e, assistTraceCat(e.Routine))
		}
		for _, ln := range sm.mshr.Lines() {
			sm.traceMSHRBegin(ln)
		}
	}
}

// Series returns the sampled metrics time-series, or nil when
// Config.SampleEvery is zero. Valid after Run.
func (sim *Simulator) Series() *obs.Series {
	if sim.smp == nil {
		return nil
	}
	return &sim.smp.series
}

// StallAttribution returns the per-warp stall attribution report, or nil
// when Config.AttributeStalls is false. Valid after Run; the per-SM
// tables are returned in SM-index order.
func (sim *Simulator) StallAttribution() *obs.Attribution {
	if !sim.Cfg.AttributeStalls {
		return nil
	}
	at := &obs.Attribution{WarpSlots: sim.Cfg.MaxWarpsPerSM}
	for _, sm := range sim.sms {
		at.PerSM = append(at.PerSM, sm.attr)
	}
	return at
}

// Trace returns the run's trace recorder, or nil when Config.TraceFile
// is empty. The caller flushes it (typically after CloseOpen at the
// final cycle).
func (sim *Simulator) Trace() *obs.Trace { return sim.tr }
