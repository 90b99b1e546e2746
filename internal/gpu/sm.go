package gpu

import (
	"bytes"
	"fmt"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/mem"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/timing"
)

// Store-buffer tuning: the dedicated L1 sets / shared-memory space used to
// buffer pending stores awaiting compression (Section 4.2.2).
const (
	storeBufCap   = 16
	storeDrainAge = 200
)

// storeEntry is one pending store line.
type storeEntry struct {
	lineAddr  uint64
	coverage  uint32 // one bit per 4-byte word of the line
	warp      int    // last storing warp (assist-warp parent)
	lastTouch uint64
	state     storeState
	// Compression chain position for the CABA path.
	chain    []core.RoutineID
	chainPos int
	alg      compress.AlgID // algorithm the chain is running
	// released marks an entry already sent to L2 (possibly abandoned
	// mid-compression by a buffer overflow); stale callbacks ignore it.
	released bool
}

type storeState uint8

const (
	sbPending  storeState = iota
	sbRMW                 // fetching the line for a partial overwrite
	sbCompress            // compression in progress (AW or HW latency)
	sbQueued              // waiting for an AWC low-priority slot
)

// fill contexts routed through mem.System's opaque user pointer.
type fillKind uint8

const (
	fillLoad fillKind = iota
	fillRMW
	fillAssist  // global load issued by an assist warp (e.g. prefetch)
	fillRefetch // fault-recovery refetch of an uncompressed line
)

type fillCtx struct {
	kind  fillKind
	load  *loadReq
	se    *storeEntry
	after cont // fillRefetch continuation
}

// wbKind tags a pipeline writeback record.
type wbKind uint8

const (
	wbWarp   wbKind = iota // regular-warp ALU/SFU/shared-mem completion
	wbAssist               // assist-warp instruction completion
	wbLoad                 // L1-hit (or HW-decompressed) load line completion
)

// wbRec is one pending pipeline writeback, held in the SM's time-bucketed
// ring instead of a heap-allocated event closure: the issue hot path was
// dominated by one closure + instruction copy per issued instruction. The
// record references the issued instruction's superop (immutable, shared),
// so queuing a writeback copies a pointer instead of an Instr and retiring
// one releases scoreboard destinations with the superop's precomputed
// masks. Nil for wbLoad records.
type wbRec struct {
	kind wbKind
	sop  *isa.Superop
	w    *warpCtx
	e    *core.Entry
	req  *loadReq
}

// SM is one streaming multiprocessor.
type SM struct {
	id  int
	sim *Simulator

	warps []*warpCtx
	ctas  []*ctaCtx
	// drainingCTAs counts resident CTAs whose warps have all finished
	// (liveWarps == 0) but whose in-flight instructions have not drained;
	// the retirement sweep runs only while it is nonzero.
	drainingCTAs int

	l1   *mem.Cache
	mshr *mem.MSHR

	awc *core.Controller

	// Use-case hardware (usecase.go): the stride-detection prefetch unit
	// and the memoization result cache. Both are nil unless Design.UseCase
	// enables them, so compression-only designs pay nothing.
	pf   *prefetcher
	memo *memoCache

	// Two-phase tick state. inTick is true while tick() runs (phase A,
	// possibly on a worker goroutine): shared-state operations are then
	// staged into outbox/wbuf instead of applied, and the simulator
	// commits them at the cycle barrier in SM-index order. Outside
	// tick() — event callbacks delivered from the queue (phase B) — the
	// same helpers apply operations directly.
	inTick       bool
	wantDispatch bool // CTA retirement requested a dispatch; run at commit
	outbox       mem.Outbox
	wbuf         *mem.WriteBuffer

	// stat is this SM's shard of the run counters; folded into sim.S at
	// the end of the run so phase-A workers never contend.
	stat stats.Shard

	// execPool recycles assist-warp execution contexts (registers +
	// staging buffers) across triggers; the assist-warp request path is
	// the simulator's dominant allocation source without it.
	execPool []*core.Exec

	// warpExecPool recycles regular-warp execution contexts across CTA
	// placements (kept separate from execPool: warp contexts are sized by
	// the kernel's register count and carry no staging buffers).
	warpExecPool []*core.Exec

	// storeBuf holds pending store lines in age order (oldest first). It
	// is bounded by storeBufCap, so identity/address lookups are linear
	// scans over a short slice — cheaper than the map it replaces.
	storeBuf []*storeEntry

	// wbRing is the pipeline writeback ring: bucket (cycle & wbMask)
	// holds the writebacks completing at that cycle. Bucket slices are
	// recycled, so steady-state issue allocates nothing.
	wbRing    [][]wbRec
	wbMask    uint64
	wbPending int

	// Retry queues for assist-warp triggers that found the AWT/AWB full.
	decompRetry []pendingTrigger
	// replayQ holds loads whose coalesced lines overflowed the MSHR.
	replayQ []*loadReq

	// Pipeline ports, reset each cycle.
	aluPorts int
	lsuPorts int
	sfuFree  uint64 // SFU initiation interval
	lsuFree  uint64 // LSU busy from multi-line coalesced accesses

	greedy *warpCtx
	// order is the GTO scheduling order (valid warps, stable-sorted by
	// lastIssueCycle then warp slot). It is maintained incrementally:
	// issued warps recorded in issuedBuf are re-placed at the back on the
	// next tick, and orderDirty forces a full rebuild after warp validity
	// changes (CTA placement/retirement). Entries are warp slot indices
	// rather than pointers so the per-issue move-to-back shift is a
	// barrier-free memmove and the position scan stays within a few cache
	// lines.
	order       []int32
	orderDirty  bool
	issuedBuf   []*warpCtx
	lineBuf     []uint64
	awLineBuf   []uint64 // coalescing scratch for assist-warp accesses
	lastGoodEnc compress.BDIEncoding
	hasLastGood bool

	// Adaptive disable (Section 4.3.1 / Section 6: applications whose
	// data is not compressible have their assist warps disabled so they
	// see no degradation). A streak of failed compression chains turns
	// the store-side compression off.
	compFailStreak int
	compDisabled   bool

	// Quiescence cache. When valid, quiescent() has proven that every
	// tick before qHorizon (exclusive) is a pure stall-accounting no-op
	// classified as qKind, so tick() replays that verdict in O(1) instead
	// of re-scanning the warp list. Any event-side entry into the SM
	// (fills, delayed decompression, store releases, CTA placement)
	// invalidates it via touch(). This is what makes memory-stall cycles
	// cheap even when dense memory-system events pin the global clock to
	// per-cycle stepping.
	qValid   bool
	qKind    stats.StallKind
	qHorizon uint64
	// qTry gates cache establishment: only a tick that issued nothing
	// makes the next tick a quiescence candidate, so busy ticks never pay
	// for the extra scan.
	qTry bool

	// fatal is the SM's first unrecoverable error (an internal invariant
	// violation that used to panic). The run loop scans it every cycle
	// and surfaces it as a structured error from Run.
	fatal error

	// fr is this SM's flight-recorder ring (nil when the recorder is
	// off). Only this SM writes it, even during phase-A worker ticks.
	fr *flightRing

	// attr is this SM's per-warp stall attribution table (nil when
	// Config.AttributeStalls is off). Like stat and fr, it is written
	// only by its owning SM, so phase-A workers never contend.
	attr *obs.Attr
	// qBlameW/qBlameC cache the attribution target alongside the
	// quiescence verdict (qKind): the tick fast path and the
	// fast-forward bulk credit charge the cached pair, so a skipped
	// window attributes exactly like the per-cycle replay it replaces.
	qBlameW int
	qBlameC obs.Cause

	// tr is this SM's trace shard (nil when Config.TraceFile is empty);
	// written only by this SM, so phase-A workers never contend. The
	// trAW*/trMSHR* maps and free lists allocate stable per-entity
	// track ids (warp slots occupy [0, MaxWarpsPerSM); assist warps and
	// MSHR lines get recycled tracks in disjoint ranges above).
	tr         *obs.TraceShard
	trAW       map[*core.Entry]int
	trAWFree   []int
	trAWNext   int
	trMSHR     map[uint64]int
	trMSHRFree []int
	trMSHRNext int

	cycle uint64
}

// touch invalidates the quiescence cache; every mutation of SM state
// that can happen outside tick() must call it.
func (sm *SM) touch() {
	sm.qValid = false
}

// fail records the SM's first fatal error; later errors are dropped so
// the surfaced error is the root cause.
func (sm *SM) fail(err error) {
	if sm.fatal == nil {
		sm.fatal = err
	}
	sm.touch()
}

// tickSafe runs one tick with a panic backstop: a panic on a phase-A
// worker goroutine cannot be recovered by Run's own defer, so it is
// converted here into the SM's fatal error and surfaced at the cycle
// barrier.
func (sm *SM) tickSafe(cycle uint64) {
	defer func() {
		if r := recover(); r != nil {
			sm.inTick = false
			sm.fail(fmt.Errorf("gpu: sm%d: internal panic at cycle %d: %v", sm.id, cycle, r))
		}
	}()
	sm.tick(cycle)
}

// --- Staged shared-state access (two-phase tick) ---
//
// Every touch of state shared across SMs — the crossbar, the event queue,
// the compression Domain, the functional backing memory — goes through
// these helpers. During tick() (phase A, concurrent across SMs) they
// stage into the per-SM outbox/write buffer; in event contexts (phase B,
// main goroutine only) they apply directly. Reads always overlay the SM's
// own staged writes, so within a tick the SM observes its own effects
// immediately and other SMs' effects from the end of the previous cycle.

// sysReadLine requests a line from the memory system.
func (sm *SM) sysReadLine(ln uint64, user any) {
	if sm.inTick {
		sm.outbox.ReadLine(ln, user)
		return
	}
	sm.sim.Sys.ReadLine(sm.id, ln, user)
}

// sysReadLineRaw requests the uncompressed copy of a line (fault
// recovery).
func (sm *SM) sysReadLineRaw(ln uint64, user any) {
	if sm.inTick {
		sm.outbox.ReadLineRaw(ln, user)
		return
	}
	sm.sim.Sys.ReadLineRaw(sm.id, ln, user)
}

// sysWriteLine sends a line writeback toward L2.
func (sm *SM) sysWriteLine(ln uint64) {
	if sm.inTick {
		sm.outbox.WriteLine(ln)
		return
	}
	sm.sim.Sys.WriteLine(sm.id, ln)
}

// qAt schedules act on the global event queue at absolute time at.
func (sm *SM) qAt(at float64, act timing.Action) {
	if sm.inTick {
		sm.outbox.Event(at, act)
		return
	}
	sm.sim.Q.Push(at, act)
}

// domState returns the line's compression state, seeing this SM's staged
// same-cycle Domain writes first.
func (sm *SM) domState(ln uint64) compress.Compressed {
	if st, ok := sm.outbox.StagedState(ln); ok {
		return st
	}
	return sm.sim.Dom.State(ln)
}

// domSetCompressed records the line as stored compressed.
func (sm *SM) domSetCompressed(ln uint64, st compress.Compressed) {
	if sm.inTick {
		sm.outbox.SetCompressed(ln, st)
		return
	}
	sm.sim.Dom.SetCompressed(ln, st)
}

// domSetRaw records the line as stored uncompressed.
func (sm *SM) domSetRaw(ln uint64) {
	if sm.inTick {
		sm.outbox.SetRaw(ln)
		return
	}
	sm.sim.Dom.SetRaw(ln)
}

// domReadRaw copies the line's uncompressed truth into buf: the committed
// bytes overlaid with this SM's staged functional stores.
func (sm *SM) domReadRaw(ln uint64, buf []byte) {
	sm.sim.Dom.ReadRaw(ln, buf)
	sm.wbuf.OverlayLine(ln, buf)
}

// domCompressLine compresses the line's current (overlay-visible) bytes
// with the domain algorithm and records the result. The compressed image
// is computed here, in phase A, from a stable snapshot — not recomputed at
// commit — so the result is independent of other SMs' same-cycle stores.
func (sm *SM) domCompressLine(ln uint64) {
	var line [compress.LineSize]byte
	sm.domReadRaw(ln, line[:])
	c, err := compress.Compress(sm.sim.Dom.Alg, line[:])
	if err != nil {
		sm.fail(fmt.Errorf("gpu: %w", err)) // impossible: line is LineSize
		return
	}
	sm.domSetCompressed(ln, c)
}

// newAssistExec builds an assist-warp execution context, recycling a
// pooled context (registers, staging buffers and all) when available.
func (sm *SM) newAssistExec(rt *core.Routine) *core.Exec {
	if n := len(sm.execPool); n > 0 {
		ex := sm.execPool[n-1]
		sm.execPool = sm.execPool[:n-1]
		core.ResetAssistExec(ex, rt)
		ex.Interp = sm.sim.Cfg.Interpreter
		return ex
	}
	ex := core.NewAssistExec(rt)
	ex.Interp = sm.sim.Cfg.Interpreter
	return ex
}

// launchAssist is the one assist-warp launch path: it triggers rt on
// host's AWT slot with ex staged and user as the pending-work payload,
// counts the launch and opens its trace span. The span category comes
// from assistTraceCat, as on snapshot restore, so live and restored
// spans agree. False means the AWT refused the trigger; ex is then
// recycled and nothing else changed.
func (sm *SM) launchAssist(rt *core.Routine, host int, ex *core.Exec, user any) bool {
	e := sm.awc.Trigger(rt, host, ex, user, sm.assistOnComplete(user, rt.ID))
	if e == nil {
		sm.releaseAssistExec(ex)
		return false
	}
	sm.stat.AssistWarps++
	if sm.tr != nil {
		sm.traceAssistBegin(e, assistTraceCat(rt))
	}
	return true
}

// releaseAssistExec returns a retired assist exec to the pool. The exec
// must have no remaining readers.
func (sm *SM) releaseAssistExec(ex *core.Exec) {
	sm.execPool = append(sm.execPool, ex)
}

func newSM(id int, sim *Simulator) *SM {
	cfg := sim.Cfg
	sm := &SM{
		id:    id,
		sim:   sim,
		warps: make([]*warpCtx, cfg.MaxWarpsPerSM),
		l1:    mem.NewCache(cfg.L1Size, cfg.L1Assoc, cfg.LineSize, 1, sim.Design.L1TagMult),
		mshr:  mem.NewMSHR(cfg.L1MSHRs),
		wbuf:  mem.NewWriteBuffer(sim.Mem),
		fr:    newFlightRing(cfg.FlightRecorderDepth),
	}
	sm.outbox.SM = id
	for i := range sm.warps {
		sm.warps[i] = &warpCtx{id: i}
	}
	// Size the writeback ring to cover the longest in-pipeline latency:
	// ALU/SFU completion, and L1 hits including the worst-case hardware
	// decompression penalty.
	maxLat := cfg.ALULatency
	if cfg.SFULatency > maxLat {
		maxLat = cfg.SFULatency
	}
	if d, _ := compress.HWLatency(compress.AlgBest); cfg.L1Latency+d > maxLat {
		maxLat = cfg.L1Latency + d
	}
	ringSize := 1
	for ringSize < maxLat+2 {
		ringSize *= 2
	}
	sm.wbRing = make([][]wbRec, ringSize)
	sm.wbMask = uint64(ringSize - 1)
	sm.orderDirty = true
	entries := sim.awtEntries
	if entries <= 0 {
		entries = cfg.MaxWarpsPerSM
	}
	sm.awc = core.NewController(sim.AWS, entries)
	if cfg.AWDeployBW > 0 {
		sm.awc.DeployBW = cfg.AWDeployBW
	}
	if sim.Design.Prefetching() {
		sm.pf = newPrefetcher()
	}
	if sim.Design.Memoizing() {
		sm.memo = &memoCache{}
	}
	return sm
}

// hasWork reports whether the SM still has anything in flight.
func (sm *SM) hasWork() bool {
	for _, c := range sm.ctas {
		if c != nil {
			return true
		}
	}
	return len(sm.storeBuf) > 0 || len(sm.awc.Entries()) > 0 ||
		len(sm.decompRetry) > 0 || len(sm.replayQ) > 0 || sm.wbPending > 0
}

// --- Writeback ring ---

// wbAdd schedules a pipeline writeback at absolute cycle at.
func (sm *SM) wbAdd(at uint64, rec wbRec) {
	if at-sm.cycle > sm.wbMask {
		panic("gpu: writeback latency exceeds ring span")
	}
	i := at & sm.wbMask
	sm.wbRing[i] = append(sm.wbRing[i], rec)
	sm.wbPending++
}

// wbPop retires the writebacks due at cycle. It runs at tick start,
// before sm.cycle advances, preserving the completion-before-issue
// ordering (and load-latency accounting) of the event-queue path it
// replaces.
func (sm *SM) wbPop(cycle uint64) {
	bucket := sm.wbRing[cycle&sm.wbMask]
	if len(bucket) == 0 {
		return
	}
	sm.wbRing[cycle&sm.wbMask] = bucket[:0]
	sm.wbPending -= len(bucket)
	for i := range bucket {
		rec := &bucket[i]
		switch rec.kind {
		case wbWarp:
			rec.w.sb.ClearSop(rec.sop)
			rec.w.depStalled = false
			rec.w.inFlight--
		case wbAssist:
			rec.e.SB.ClearSop(rec.sop)
			rec.e.Outstanding--
			sm.checkAssistDone(rec.e)
		case wbLoad:
			sm.loadLineDone(rec.req)
		}
		*rec = wbRec{} // drop pointers so retired contexts can be collected
	}
}

// wbNext returns the cycle of the earliest pending writeback after `from`
// (exclusive); ok is false when the ring is empty. Used by the
// fast-forward engine to bound the skip window.
func (sm *SM) wbNext(from uint64) (uint64, bool) {
	if sm.wbPending == 0 {
		return 0, false
	}
	for d := uint64(1); d <= sm.wbMask+1; d++ {
		if len(sm.wbRing[(from+d)&sm.wbMask]) > 0 {
			return from + d, true
		}
	}
	return 0, false
}

// --- CTA lifecycle ---

// placeCTA installs thread block cta onto the SM. Caller checked capacity.
// It invalidates the quiescence cache: fresh warps change the issue
// picture.
func (sm *SM) placeCTA(ctaID int) {
	sm.touch()
	sm.orderDirty = true
	k := sm.sim.Kernel
	cfg := sm.sim.Cfg
	warpsNeeded := k.WarpsPerCTA(cfg)
	cta := &ctaCtx{
		id:     ctaID,
		shared: make([]byte, k.SharedMem),
	}
	placed := 0
	for _, w := range sm.warps {
		if placed == warpsNeeded {
			break
		}
		if w.valid {
			continue
		}
		threadsLeft := k.CTAThreads - placed*cfg.WarpSize
		mask := core.FullMask
		if threadsLeft < cfg.WarpSize {
			mask = (1 << threadsLeft) - 1
		}
		var ex *core.Exec
		if n := len(sm.warpExecPool); n > 0 {
			ex = sm.warpExecPool[n-1]
			sm.warpExecPool = sm.warpExecPool[:n-1]
			ex.Reset(k.Prog, mask)
		} else {
			ex = core.NewExec(k.Prog, mask)
		}
		ex.Interp = cfg.Interpreter
		ex.Mem = sm.wbuf
		ex.Shared = cta.shared
		for lane := 0; lane < cfg.WarpSize; lane++ {
			tid := placed*cfg.WarpSize + lane
			ex.SetLaneSpecial(lane, isa.RegTid, uint64(tid))
			ex.SetLaneSpecial(lane, isa.RegGtid, uint64(ctaID*k.CTAThreads+tid))
		}
		ex.SetSpecial(isa.RegNTid, uint64(k.CTAThreads))
		ex.SetSpecial(isa.RegCtaid, uint64(ctaID))
		ex.SetSpecial(isa.RegNCta, uint64(k.GridCTAs))
		ex.SetSpecial(isa.RegWarp, uint64(placed))
		ex.SetSpecial(isa.RegParam0, k.Params[0])
		ex.SetSpecial(isa.RegParam1, k.Params[1])
		ex.SetSpecial(isa.RegParam2, k.Params[2])
		ex.SetSpecial(isa.RegParam3, k.Params[3])
		w.cta = cta
		w.exec = ex
		w.sb = regMask{}
		w.depStalled = false
		w.idle = false
		w.valid = true
		w.inFlight = 0
		w.pendingLoads = 0
		cta.warps = append(cta.warps, w)
		placed++
	}
	if placed != warpsNeeded {
		panic("gpu: placeCTA without capacity")
	}
	cta.liveWarps = warpsNeeded
	sm.ctas = append(sm.ctas, cta)
	if sm.tr != nil {
		for _, w := range cta.warps {
			sm.traceWarpBegin(w, ctaID)
		}
	}
	if sm.fr != nil {
		sm.record(fmt.Sprintf("CTA %d placed (%d warps)", ctaID, warpsNeeded), 0)
	}
}

// freeWarps reports how many warp slots are free.
func (sm *SM) freeWarps() int {
	n := 0
	for _, w := range sm.warps {
		if !w.valid {
			n++
		}
	}
	return n
}

// retireCTAIfDone frees a finished CTA and asks the dispatcher for more
// work.
func (sm *SM) retireCTAIfDone(cta *ctaCtx) {
	if !cta.retirable() {
		return
	}
	for _, w := range cta.warps {
		if sm.tr != nil {
			sm.traceWarpEnd(w)
		}
		w.valid = false
		sm.warpExecPool = append(sm.warpExecPool, w.exec)
		w.exec = nil
		w.cta = nil
	}
	sm.orderDirty = true
	sm.drainingCTAs--
	for i, c := range sm.ctas {
		if c == cta {
			sm.ctas = append(sm.ctas[:i], sm.ctas[i+1:]...)
			break
		}
	}
	if sm.fr != nil {
		sm.record(fmt.Sprintf("CTA %d retired", cta.id), 0)
	}
	// Dispatch pulls from the shared CTA counter; during a tick the
	// request is deferred and the simulator runs it at the cycle barrier
	// in SM-index order, after the whole retirement sweep. The new CTAs
	// then fill the freed warp slots in ascending order; dispatching
	// inside the sweep would fill them in retirement order, which changes
	// the schedule (it alone moved Base PVC at scale 0.15 from 72794 to
	// 72504 cycles; TestDispatchAtCycleBarrier pins it).
	if sm.inTick {
		sm.wantDispatch = true
		return
	}
	sm.sim.dispatch(sm)
}

// --- Per-cycle tick ---

// tick runs one SM cycle (phase A of the two-phase tick). It may execute
// on a worker goroutine: inTick routes every shared-state effect into the
// SM's outbox/write buffer, and the simulator commits them at the cycle
// barrier in SM-index order.
func (sm *SM) tick(cycle uint64) {
	sm.inTick = true
	sm.tickCompute(cycle)
	sm.inTick = false
}

func (sm *SM) tickCompute(cycle uint64) {
	// Quiescence fast path: replay (or establish) a proven stall
	// classification without touching the pipeline. Bit-identical to the
	// full tick below — quiescent() guarantees the tick would be a pure
	// accounting no-op, and creditQuiet's NoteIdleSlots matches
	// NumSchedulers failed NoteIssueSlot calls exactly.
	// Only a tick that follows an idle one proves a fresh verdict; one
	// whose horizon ran out waits for a full tick. The busy-tick common
	// case (no verdict, no attempt) skips the call.
	if sm.sim.Cfg.FastForward && (sm.qValid || sm.qTry) && sm.quiet(cycle, !sm.qValid) {
		sm.creditQuiet(1, cycle)
		return
	}

	// Retire pipeline writebacks due this cycle before the clock (and the
	// issue stage) advances.
	sm.wbPop(cycle)

	sm.cycle = cycle
	sm.aluPorts = sm.sim.Cfg.NumSchedulers
	sm.lsuPorts = 1

	// Retry assist-warp triggers that previously found structures full.
	if len(sm.decompRetry) > 0 {
		sm.retryTriggers()
	}

	sm.awc.Tick()
	sm.processReplays()
	sm.rebuildOrder()

	idle := true
	for s := 0; s < sm.sim.Cfg.NumSchedulers; s++ {
		kind := sm.issueSlot()
		if kind == stats.Active {
			idle = false
		}
		sm.awc.NoteIssueSlot(kind == stats.Active)
		sm.stat.IssueSlots[kind]++
	}
	sm.qTry = idle

	sm.drainStores()

	// CTA retirement sweep, only while some CTA has every warp done and
	// is draining its in-flight instructions (drainingCTAs tracks the
	// liveWarps==0 population, so the common steady-state tick skips the
	// walk entirely).
	if sm.drainingCTAs > 0 {
		for i := len(sm.ctas) - 1; i >= 0; i-- {
			sm.retireCTAIfDone(sm.ctas[i])
		}
	}
}

// canEvictStore reports whether the store buffer has a releasable entry.
func (sm *SM) canEvictStore() bool {
	for _, se := range sm.storeBuf {
		if se.state == sbPending || se.state == sbQueued {
			return true
		}
	}
	return false
}

// findStore returns the buffered entry for lineAddr, or nil.
func (sm *SM) findStore(ln uint64) *storeEntry {
	for _, se := range sm.storeBuf {
		if se.lineAddr == ln {
			return se
		}
	}
	return nil
}

// removeStore unlinks se from the buffer, preserving age order.
func (sm *SM) removeStore(se *storeEntry) {
	for i, x := range sm.storeBuf {
		if x == se {
			sm.storeBuf = append(sm.storeBuf[:i], sm.storeBuf[i+1:]...)
			return
		}
	}
}

// --- Regular instruction issue ---

func (sm *SM) issueRegular(w *warpCtx, in *isa.Superop) {
	// Memoization consults the result cache with the instruction's content
	// hash, read before StepRef moves the register file (a source may
	// alias the destination). A free SFU port always executes directly —
	// probing only pays when the port is the bottleneck (tryMemoIssue) —
	// but misses install their freshly computed result for later reuse.
	var memoKey uint64
	memoMiss := false
	if sm.memo != nil && in.Class == isa.ClassSFU {
		memoKey = memoKeyFor(w.exec, in)
		memoMiss = !sm.memo.lookup(memoKey)
	}
	info, ok := w.exec.StepRef()
	if !ok {
		return
	}
	if w.exec.Err != nil {
		// A kernel-program fault (e.g. an out-of-range shared store) kills
		// the run with a structured error instead of a process panic.
		sm.fail(fmt.Errorf("gpu: sm%d warp %d: %w", sm.id, w.id, w.exec.Err))
		return
	}
	w.lastIssueCycle = sm.cycle
	sm.issuedBuf = append(sm.issuedBuf, w)
	sm.stat.WarpInstrs++
	sm.stat.ThreadInstrs += uint64(popcount32(info.ExecMask))
	sm.countClass(in)

	switch in.Class {
	case isa.ClassALU:
		sm.aluPorts--
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.ALULatency))
	case isa.ClassSFU:
		sm.sfuFree = sm.cycle + 4 // initiation interval
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.SFULatency))
		if memoMiss {
			sm.stat.MemoMisses++
			if sm.tryMemoSave(w, memoKey) {
				sm.memo.insert(memoKey)
				sm.stat.MemoUpdates++
			}
		}
	case isa.ClassMem:
		sm.lsuPorts--
		sm.issueMemory(w, in, info)
	case isa.ClassCtrl:
		sm.handleControl(w, in)
	}
	if w.exec.Done {
		sm.noteWarpDone(w)
	}
}

// finishAfter scoreboards in's destinations for lat cycles. The exec's PC
// moves on, but superops are immutable per kernel, so the ring record
// keeps only the pointer.
func (sm *SM) finishAfter(w *warpCtx, in *isa.Superop, lat uint64) {
	w.sb.MarkSop(in)
	w.inFlight++
	sm.wbAdd(sm.cycle+lat, wbRec{kind: wbWarp, sop: in, w: w})
}

func (sm *SM) handleControl(w *warpCtx, in *isa.Superop) {
	switch in.Op {
	case isa.OpBar:
		cta := w.cta
		cta.atBarrier++
		if cta.atBarrier >= cta.liveWarps {
			cta.atBarrier = 0
			for _, ww := range cta.warps {
				ww.exec.ReleaseBarrier()
				ww.idle = false
			}
		}
	}
}

// noteWarpDone handles a warp that finished execution on this issue
// (explicit exit or falling off the program end).
func (sm *SM) noteWarpDone(w *warpCtx) {
	cta := w.cta
	cta.liveWarps--
	if cta.liveWarps == 0 {
		sm.drainingCTAs++
	}
	// A warp exiting releases any barrier its siblings wait at.
	if cta.liveWarps > 0 && cta.atBarrier >= cta.liveWarps {
		cta.atBarrier = 0
		for _, ww := range cta.warps {
			if !ww.exec.Done {
				ww.exec.ReleaseBarrier()
				ww.idle = false
			}
		}
	}
}

// issueMemory handles shared/global/staging accesses of regular warps.
func (sm *SM) issueMemory(w *warpCtx, in *isa.Superop, info *core.StepInfo) {
	if !in.GlobalMem {
		// Shared memory: fixed short latency.
		sm.finishAfter(w, in, uint64(sm.sim.Cfg.L1Latency))
		return
	}
	lines := coalesceInto(&sm.lineBuf, &info.Addrs, info.ExecMask, sm.sim.Cfg.LineSize)
	sm.lsuFree = sm.cycle + uint64(len(lines)) // coalescer throughput

	if in.Op == isa.OpStGlobal || in.Op == isa.OpAtomAdd {
		for _, ln := range lines {
			sm.storeToBuffer(w, ln, info)
		}
	}
	if in.Op == isa.OpLdGlobal || in.Op == isa.OpAtomAdd {
		req := &loadReq{warp: w, sop: in, issued: sm.cycle}
		w.sb.MarkSop(in)
		w.inFlight++
		w.pendingLoads++
		trained := false
		for _, ln := range lines {
			if in.Op == isa.OpLdGlobal && sm.l1Lookup(ln, req) {
				continue // L1 hit path scheduled
			}
			// Miss (or atomic, which bypasses L1).
			req.linesPending++
			sm.stat.L1Misses++
			// The stride unit trains on the access's first missing line
			// (divergent accesses would otherwise feed it intra-access
			// deltas instead of the stream's stride).
			if sm.pf != nil && !trained && in.Op == isa.OpLdGlobal {
				trained = true
				sm.pfTrain(w, in.PC, ln)
			}
			sm.fetchOrReplay(req, ln)
		}
		if len(req.todo) > 0 {
			w.replay = req
			sm.replayQ = append(sm.replayQ, req)
		}
		if req.linesPending == 0 && len(req.todo) == 0 {
			// Guard predicate disabled every lane: nothing to wait for.
			w.sb.ClearSop(in)
			w.depStalled = false
			w.inFlight--
			w.pendingLoads--
		}
	} else {
		// Pure store: retires once buffered.
		sm.finishAfter(w, in, 1)
	}
}

// l1Lookup probes the L1 for a load line; on hit it schedules completion
// (including any capacity-mode decompression) and returns true.
func (sm *SM) l1Lookup(ln uint64, req *loadReq) bool {
	if !sm.l1.Lookup(ln, false) {
		return false
	}
	sm.stat.L1Hits++
	if sm.pf != nil && sm.pf.noteHit(ln) {
		sm.stat.PrefetchUseful++
	}
	lat := uint64(sm.sim.Cfg.L1Latency)
	// Figure 13: L1-resident compressed lines pay decompression on every
	// hit.
	if sm.sim.Design.L1TagMult > 1 {
		if st := sm.domState(ln); st.IsCompressed() && sm.l1.LineSizeOf(ln) < sm.sim.Cfg.LineSize {
			switch sm.sim.Design.Decomp {
			case config.DecompHW:
				d, _ := compress.HWLatency(sm.sim.Design.Alg)
				lat += uint64(d)
			case config.DecompCABA:
				// Run the decompression assist warp before the hit
				// completes.
				req.linesPending++
				// L1-resident lines were checked on fill; never injected.
				sm.triggerDecompAW(ln, st, req.warp.id, false, cont{kind: contLoadLineDone, req: req})
				return true
			}
		}
	}
	req.linesPending++
	sm.wbAdd(sm.cycle+lat, wbRec{kind: wbLoad, req: req})
	return true
}

// fetchOrReplay sends a missing line to memory, or queues it for replay
// when the MSHR is full (the LSU retries it in later cycles, as real
// coalescers do with split transactions).
func (sm *SM) fetchOrReplay(req *loadReq, ln uint64) {
	if primary, ok := sm.mshr.Add(ln, req); ok {
		if primary {
			if sm.tr != nil {
				sm.traceMSHRBegin(ln)
			}
			sm.sysReadLine(ln, &fillCtx{kind: fillLoad, load: req})
		}
		return
	}
	req.todo = append(req.todo, ln)
}

// processReplays retries MSHR-overflow lines, one LSU slot per line.
func (sm *SM) processReplays() {
	for len(sm.replayQ) > 0 {
		req := sm.replayQ[0]
		for len(req.todo) > 0 {
			if !sm.replayReady(sm.cycle) {
				return
			}
			ln := req.todo[0]
			if primary, ok := sm.mshr.Add(ln, req); ok {
				req.todo = req.todo[1:]
				sm.lsuFree = sm.cycle + 1
				if primary {
					if sm.tr != nil {
						sm.traceMSHRBegin(ln)
					}
					sm.sysReadLine(ln, &fillCtx{kind: fillLoad, load: req})
				}
				continue
			}
			return
		}
		req.todo = nil
		if req.warp.replay == req {
			req.warp.replay = nil
		}
		sm.replayQ = sm.replayQ[1:]
	}
}

// replayReady reports whether the LSU can retry a replayed line at
// cycle: its port is free and so is an MSHR entry.
func (sm *SM) replayReady(cycle uint64) bool {
	return cycle >= sm.lsuFree && !sm.mshr.Full()
}

// loadLineDone retires one line of a load; the last line completes the
// instruction.
func (sm *SM) loadLineDone(req *loadReq) {
	sm.touch()
	req.linesPending--
	if req.linesPending > 0 {
		return
	}
	w := req.warp
	w.sb.ClearSop(req.sop)
	w.depStalled = false
	w.inFlight--
	w.pendingLoads--
	sm.stat.LoadCount++
	sm.stat.LoadLatTotal += sm.cycle - req.issued
}

// coalesceInto merges per-lane addresses into unique cache lines using
// the caller's scratch buffer.
func coalesceInto(buf *[]uint64, addrs *[core.WarpSize]uint64, mask uint32, lineSize int) []uint64 {
	lines := (*buf)[:0]
	for lane := 0; lane < core.WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		la := addrs[lane] &^ uint64(lineSize-1)
		found := false
		for _, x := range lines {
			if x == la {
				found = true
				break
			}
		}
		if !found {
			lines = append(lines, la)
		}
	}
	*buf = lines
	return lines
}

// --- Store buffer ---

// storeToBuffer merges a store's words into the pending-store buffer.
func (sm *SM) storeToBuffer(w *warpCtx, ln uint64, info *core.StepInfo) {
	se := sm.findStore(ln)
	if se == nil {
		if len(sm.storeBuf) >= storeBufCap {
			sm.evictOldestStore()
		}
		se = &storeEntry{lineAddr: ln}
		sm.storeBuf = append(sm.storeBuf, se)
	}
	se.warp = w.id
	se.lastTouch = sm.cycle
	for lane := 0; lane < core.WarpSize; lane++ {
		if info.ExecMask&(1<<lane) == 0 {
			continue
		}
		if info.Addrs[lane]&^uint64(sm.sim.Cfg.LineSize-1) != ln {
			continue
		}
		word := (info.Addrs[lane] % uint64(sm.sim.Cfg.LineSize)) / 4
		se.coverage |= 1 << word
		if info.Width == 8 && word < 31 {
			se.coverage |= 1 << (word + 1)
		}
	}
}

// evictOldestStore releases the oldest pending entry uncompressed
// (Section 4.2.2: on overflow, stores go out raw).
func (sm *SM) evictOldestStore() {
	for i, se := range sm.storeBuf {
		if se.state != sbPending && se.state != sbQueued {
			continue
		}
		se.released = true // abandon any queued compression chain
		sm.storeBuf = append(sm.storeBuf[:i], sm.storeBuf[i+1:]...)
		sm.stat.StoreBufferFlushes++
		if sm.sim.Design.Scope == config.ScopeL2 {
			sm.domSetRaw(se.lineAddr)
		}
		sm.sysWriteLine(se.lineAddr)
		return
	}
}

// drainStores ages the buffer and launches compression/writeback.
// beginDrain may release the entry synchronously (removing it from the
// buffer), so the walk re-checks the slot before advancing.
func (sm *SM) drainStores() {
	for i := 0; i < len(sm.storeBuf); {
		se := sm.storeBuf[i]
		if sm.drainDue(se, sm.cycle) {
			sm.beginDrain(se)
		}
		if i < len(sm.storeBuf) && sm.storeBuf[i] == se {
			i++
		}
	}
}

// drainDue reports whether se starts draining at cycle: a pending line
// drains once it has aged storeDrainAge cycles, or at once while the
// buffer is three-quarters full.
func (sm *SM) drainDue(se *storeEntry, cycle uint64) bool {
	return se.state == sbPending &&
		(cycle-se.lastTouch >= storeDrainAge || len(sm.storeBuf) >= storeBufCap*3/4)
}

// beginDrain starts writing a store line back: a partial overwrite of a
// compressed line fetches it first (Section 4.2.2's worst case), then the
// line is compressed per the design and sent to L2.
func (sm *SM) beginDrain(se *storeEntry) {
	full := se.coverage == 0xFFFFFFFF
	if !full && sm.sim.Design.Compressing() && sm.domState(se.lineAddr).IsCompressed() {
		se.state = sbRMW
		sm.sysReadLine(se.lineAddr, &fillCtx{kind: fillRMW, se: se})
		return
	}
	sm.compressAndWrite(se)
}

// compressAndWrite runs the design's compression path and releases the
// line.
func (sm *SM) compressAndWrite(se *storeEntry) {
	design := sm.sim.Design
	if design.Scope != config.ScopeL2 {
		// Base and HW-BDI-Mem: the SM sends raw lines.
		sm.releaseStore(se)
		return
	}
	switch design.Decomp {
	case config.DecompIdeal:
		sm.domCompressLine(se.lineAddr)
		sm.releaseStore(se)
	case config.DecompHW:
		se.state = sbCompress
		_, lat := compress.HWLatency(design.Alg)
		sm.qAt(float64(sm.cycle+uint64(lat)), actHWCompress{sm: sm, se: se})
	case config.DecompCABA:
		if sm.compDisabled {
			sm.domSetRaw(se.lineAddr)
			sm.releaseStore(se)
			return
		}
		sm.beginCABACompression(se)
	default:
		sm.releaseStore(se)
	}
}

// releaseStore sends the (possibly compressed) line to L2 and frees the
// buffer slot.
func (sm *SM) releaseStore(se *storeEntry) {
	sm.touch()
	se.released = true
	sm.removeStore(se)
	sm.sysWriteLine(se.lineAddr)
}

// --- CABA integration ---

// compressionChain builds the routine sequence for one line: the
// zeros/repeat check, then encoding tests starting from the last
// successful encoding (the paper's single-encoding fast path for
// homogeneous data).
func (sm *SM) compressionChain(alg compress.AlgID) []core.RoutineID {
	switch alg {
	case compress.AlgBDI:
		chain := []core.RoutineID{core.RtBDICompSpecial}
		if sm.hasLastGood {
			chain = append(chain, core.RtBDICompTest+core.RoutineID(sm.lastGoodEnc))
		}
		for _, enc := range core.BDICompTestOrder {
			if sm.hasLastGood && enc == sm.lastGoodEnc {
				continue
			}
			chain = append(chain, core.RtBDICompTest+core.RoutineID(enc))
		}
		return chain
	case compress.AlgFPC:
		return []core.RoutineID{core.RtFPCComp}
	case compress.AlgCPack:
		return []core.RoutineID{core.RtCPackComp}
	}
	return nil
}

// beginCABACompression queues the line's compression assist-warp chain.
func (sm *SM) beginCABACompression(se *storeEntry) {
	se.state = sbQueued
	se.alg = sm.sim.Design.Alg
	if se.alg == compress.AlgBest {
		// CABA-BestOfAll selects per line with no selection overhead
		// (Section 6.3): pick the oracle's best algorithm, then pay that
		// algorithm's assist-warp cost.
		var line [compress.LineSize]byte
		sm.domReadRaw(se.lineAddr, line[:])
		best, _ := compress.Compress(compress.AlgBest, line[:])
		se.alg = best.Alg
		if se.alg == compress.AlgNone {
			sm.domSetRaw(se.lineAddr)
			sm.releaseStore(se)
			return
		}
	}
	se.chain = sm.compressionChain(se.alg)
	se.chainPos = 0
	sm.stepCompressionChain(se)
}

// stepCompressionChain triggers the next routine in the chain, retrying
// next cycle when the low-priority AWB partition is full or throttled.
func (sm *SM) stepCompressionChain(se *storeEntry) {
	if se.chainPos >= len(se.chain) {
		// Nothing fit: release raw. A long failure streak disables the
		// compression path for this core (incompressible application).
		sm.compFailStreak++
		if sm.compFailStreak >= 3 {
			sm.compDisabled = true
		}
		sm.domSetRaw(se.lineAddr)
		sm.releaseStore(se)
		return
	}
	if !sm.tryCompressStep(se) {
		se.state = sbQueued
		sm.decompRetry = append(sm.decompRetry, pendingTrigger{kind: pendCompress, se: se})
	}
}

// tryCompressStep triggers the current compression-chain routine for se;
// true means the trigger landed. se must not be released: the retry pass
// drops a queued step whose line a buffer overflow released raw.
func (sm *SM) tryCompressStep(se *storeEntry) bool {
	rt := sm.sim.AWS.MustGet(se.chain[se.chainPos])
	if !sm.awc.CanTrigger(rt.Priority, se.warp) {
		return false
	}
	ex := sm.newAssistExec(rt)
	sm.domReadRaw(se.lineAddr, ex.StageIn[:compress.LineSize])
	if !sm.launchAssist(rt, se.warp, ex, se) {
		return false
	}
	se.state = sbCompress
	return true
}

// assistOnComplete derives an assist warp's completion callback from its
// opaque User payload and routine. Keeping the mapping total on the User
// type (rather than capturing ad-hoc closures) is what lets snapshot
// restore reattach callbacks to deserialized AWT entries.
func (sm *SM) assistOnComplete(user any, rtID core.RoutineID) func(*core.Entry) {
	switch u := user.(type) {
	case *storeEntry:
		return func(done *core.Entry) { sm.finishCompressionStep(u, done) }
	case *decompCtx:
		if rtID == core.RtECCCheck {
			return func(fin *core.Entry) { sm.finishECCCheck(u, fin.Exec) }
		}
		return func(fin *core.Entry) { sm.finishDecompression(u, fin.Exec) }
	case *decompPlain:
		return func(fin *core.Entry) {
			// Injection disabled: verify against the backing store and
			// complete — exactly the pre-fault-framework flow.
			sm.verifyDecompression(u.ln, fin.Exec)
			sm.stat.LinesDecompressed++
			sm.runCont(u.done)
		}
	case *memoCtx:
		return func(*core.Entry) { sm.finishMemoProbe(u) }
	}
	// Use-case triggers with no owner payload (prefetches, result-cache
	// installs) still need a restorable completion: snapshot restore
	// rejects AWT entries whose OnComplete cannot be rebuilt.
	switch rtID {
	case core.RtPrefetch, core.RtMemoSave:
		return func(*core.Entry) {}
	}
	return nil
}

// finishCompressionStep consumes one routine's result.
func (sm *SM) finishCompressionStep(se *storeEntry, e *core.Entry) {
	if se.released {
		return // the buffer overflowed and released this line raw
	}
	if e.Exec.Err != nil {
		// Compression routines run on uncorrupted staging input, so an
		// error here is a simulator bug, not an injected fault.
		sm.fail(fmt.Errorf("gpu: assist warp %s: %w", e.Routine.Name, e.Exec.Err))
		return
	}
	ex := e.Exec
	id := se.chain[se.chainPos]
	switch {
	case id == core.RtBDICompSpecial:
		switch ex.Result(core.ResultReg) {
		case 2:
			sm.installCompressed(se, compress.BDIZeros, ex)
			return
		case 1:
			sm.installCompressed(se, compress.BDIRepeat, ex)
			return
		}
	case id >= core.RtBDICompTest && id < core.RtBDICompTest+core.RoutineID(compress.BDINumEncodings):
		if ex.Result(core.ResultReg) == 1 {
			enc := compress.BDIEncoding(id - core.RtBDICompTest)
			sm.lastGoodEnc, sm.hasLastGood = enc, true
			sm.installCompressed(se, enc, ex)
			return
		}
	case id == core.RtFPCComp || id == core.RtCPackComp:
		if ex.Result(core.ResultReg) == 1 {
			size := int(ex.Result(core.SizeReg))
			alg := compress.AlgFPC
			if id == core.RtCPackComp {
				alg = compress.AlgCPack
			}
			st := compress.Compressed{Alg: alg, Enc: 0,
				Data: append([]byte(nil), ex.StageOut[:size]...)}
			sm.compFailStreak = 0
			sm.domSetCompressed(se.lineAddr, st)
			sm.stat.LinesCompressed++
			sm.releaseStore(se)
			return
		}
	}
	// This routine failed: try the next one.
	se.chainPos++
	sm.stepCompressionChain(se)
}

// installCompressed stores a successful BDI compression result.
func (sm *SM) installCompressed(se *storeEntry, enc compress.BDIEncoding, ex *core.Exec) {
	sm.compFailStreak = 0
	size := enc.CompressedSize()
	st := compress.Compressed{Alg: compress.AlgBDI, Enc: uint8(enc),
		Data: append([]byte(nil), ex.StageOut[:size]...)}
	sm.domSetCompressed(se.lineAddr, st)
	sm.stat.LinesCompressed++
	sm.releaseStore(se)
}

// decompCtx tracks one in-flight decompression through the fault-aware
// completion chain: the line, the parent warp (for check-slot borrowing),
// whether this fill was corrupted by the campaign, the decompressed image
// awaiting its ECC check, and the fill continuation. Allocated only when
// injection is active, so the zero-fault fill path stays allocation-free.
type decompCtx struct {
	ln       uint64
	warp     int
	injected bool
	done     cont
	buf      [compress.LineSize]byte
}

// retryTriggers makes one pass over the queued assist-warp triggers,
// dropping those that land or whose target was abandoned.
func (sm *SM) retryTriggers() {
	q := sm.decompRetry
	// Once a trigger of one priority fails, the rest of that priority
	// stay queued without being tried this pass. Skipping them is exact:
	//   - a failed trigger has no side effects;
	//   - a trigger that lands only adds AWT entries, so it cannot
	//     unblock a class;
	//   - CanTrigger(PriLow, ·) and findAssistHost(PriHigh, ·) < 0 do not
	//     depend on the parent warp.
	var blocked [2]bool // indexed by core.Priority
	n := 0
	for i := range q {
		pt := &q[i]
		if pt.kind == pendCompress && pt.se.released {
			continue // overflow released the line raw; drop the chain
		}
		if pri := pt.kind.priority(); !blocked[pri] {
			if sm.runTrigger(pt) {
				continue
			}
			blocked[pri] = true
		}
		if n != i {
			q[n] = *pt
		}
		n++
	}
	clear(q[n:])
	sm.decompRetry = q[:n]
}

// findAssistHost returns a warp slot that can accept a trigger at the
// given priority, preferring the parent warp; when it is busy (e.g. a
// divergent load needing several lines decompressed), any other warp's
// slot is borrowed — the AWT is a centralized per-SM structure
// (Section 3.3), and the parent's dependents are already held by the
// load's scoreboard entry. Returns -1 when every slot is busy.
func (sm *SM) findAssistHost(pri core.Priority, warp int) int {
	if pri != core.PriHigh {
		// Low-priority acceptance is warp-independent (a shared partition
		// cap), so the parent either hosts or nobody does.
		if sm.awc.CanTrigger(pri, warp) {
			return warp
		}
		return -1
	}
	if sm.awc.Full() {
		return -1
	}
	if sm.awc.HighFor(warp) == nil {
		return warp
	}
	n := len(sm.warps)
	for i := 1; i < n; i++ {
		cand := (warp + i) % n
		if sm.awc.HighFor(cand) == nil {
			return cand
		}
	}
	return -1
}

// triggerDecompAW starts (or queues) a high-priority decompression assist
// warp for a line arriving compressed; done runs when it finishes.
// injected marks a fill the fault campaign corrupted, which routes the
// completion through detection and recovery instead of delivering garbage.
func (sm *SM) triggerDecompAW(ln uint64, st compress.Compressed, warp int, injected bool, done cont) {
	sm.touch()
	if _, err := core.DecompRoutineID(st); err != nil {
		sm.fail(fmt.Errorf("gpu: %w", err))
		return
	}
	var dc *decompCtx
	if sm.sim.Sys.Inj != nil {
		dc = &decompCtx{ln: ln, warp: warp, injected: injected, done: done}
	}
	sm.record("decompression assist warp triggered", ln)
	pt := pendingTrigger{kind: pendDecomp, ln: ln, st: st, warp: warp, done: done, dc: dc}
	if !sm.tryDecompTrigger(&pt) {
		sm.decompRetry = append(sm.decompRetry, pt)
	}
}

// tryDecompTrigger triggers the decompression assist warp for a queued
// fill; false means the AWT had no slot and the trigger must retry.
func (sm *SM) tryDecompTrigger(pt *pendingTrigger) bool {
	id, _ := core.DecompRoutineID(pt.st) // validated at trigger time
	rt := sm.sim.AWS.MustGet(id)
	host := sm.findAssistHost(rt.Priority, pt.warp)
	if host < 0 {
		return false
	}
	ex := sm.newAssistExec(rt)
	copy(ex.StageIn, pt.st.Data)
	var user any
	if pt.dc != nil {
		user = pt.dc
	} else {
		user = &decompPlain{ln: pt.ln, done: pt.done}
	}
	return sm.launchAssist(rt, host, ex, user)
}

// verifyDecompression checks the assist warp's output against the backing
// store. The store may legitimately have moved on (a later write to the
// line between compression and this decompression), so only hard failures
// (routine errors) are fatal; mismatches are tolerated but counted.
func (sm *SM) verifyDecompression(ln uint64, ex *core.Exec) {
	if ex.Err != nil {
		sm.fail(fmt.Errorf("gpu: decompression routine failed: %w", ex.Err))
		return
	}
	var truth [compress.LineSize]byte
	sm.domReadRaw(ln, truth[:])
	if !bytes.Equal(ex.StageOut[:compress.LineSize], truth[:]) {
		sm.stat.DecompMismatches++
	}
}

// finishDecompression is the completion path while fault injection is
// active. A routine error on an injected fill is a detected fault that
// triggers the raw refetch; otherwise the decompressed image is handed to
// the ECC-style check assist warp before the fill's waiters resume.
func (sm *SM) finishDecompression(dc *decompCtx, ex *core.Exec) {
	if ex.Err != nil {
		if dc.injected {
			// The corrupted payload tripped the routine itself (e.g. an
			// out-of-range stage store from a mangled size field).
			sm.stat.FaultsDetected++
			sm.refetchRaw(dc.ln, dc.done)
			return
		}
		sm.fail(fmt.Errorf("gpu: decompression routine failed: %w", ex.Err))
		return
	}
	sm.stat.LinesDecompressed++
	copy(dc.buf[:], ex.StageOut[:compress.LineSize])
	sm.startECCCheck(dc)
}

// startECCCheck triggers the RtECCCheck assist warp over the decompressed
// image. The routine charges the realistic warp-wide checksum cost
// (staging loads + shuffle reduction); the pass/fail decision compares
// the image against the backing store when the routine completes.
func (sm *SM) startECCCheck(dc *decompCtx) {
	if !sm.tryECC(dc) {
		sm.decompRetry = append(sm.decompRetry, pendingTrigger{kind: pendECC, dc: dc})
	}
}

// tryECC triggers the ECC-check assist warp over dc's decompressed image;
// false means no AWT slot was available.
func (sm *SM) tryECC(dc *decompCtx) bool {
	rt := sm.sim.AWS.MustGet(core.RtECCCheck)
	host := sm.findAssistHost(rt.Priority, dc.warp)
	if host < 0 {
		return false
	}
	ex := sm.newAssistExec(rt)
	copy(ex.StageIn, dc.buf[:])
	return sm.launchAssist(rt, host, ex, dc)
}

// finishECCCheck resolves the check: a clean image completes the fill; a
// corrupted injected image triggers the raw refetch; a mismatch without
// injection is the same benign compress-vs-write race the zero-fault
// verifier tolerates.
func (sm *SM) finishECCCheck(dc *decompCtx, ex *core.Exec) {
	if ex.Err != nil {
		sm.fail(fmt.Errorf("gpu: ECC check routine failed: %w", ex.Err))
		return
	}
	var truth [compress.LineSize]byte
	sm.domReadRaw(dc.ln, truth[:])
	if bytes.Equal(dc.buf[:], truth[:]) {
		sm.runCont(dc.done)
		return
	}
	if dc.injected {
		sm.stat.FaultsDetected++
		sm.refetchRaw(dc.ln, dc.done)
		return
	}
	sm.stat.DecompMismatches++
	sm.runCont(dc.done)
}

// refetchRaw fetches the uncompressed copy of a detected-corrupt line
// instead of propagating garbage to the waiters; after runs when the
// clean copy arrives (counted then as the recovery).
func (sm *SM) refetchRaw(ln uint64, after cont) {
	sm.touch()
	sm.record("fault detected; refetching raw line", ln)
	sm.sysReadLineRaw(ln, &fillCtx{kind: fillRefetch, after: after})
}

// --- Assist-warp instruction issue ---

// countClass tallies the issued instruction's class for the energy model.
func (sm *SM) countClass(in *isa.Superop) {
	switch in.Class {
	case isa.ClassALU:
		sm.stat.ALUInstrs++
	case isa.ClassSFU:
		sm.stat.SFUInstrs++
	case isa.ClassMem:
		sm.stat.MemInstrs++
	case isa.ClassCtrl:
		sm.stat.CtrlInstrs++
	}
}

// checkAssistDone retires a finished assist warp and recycles its staging
// buffers (the completion callback, which fires inside Retire, is the last
// reader of the exec's staging output).
func (sm *SM) checkAssistDone(e *core.Entry) {
	if !e.Killed && e.Done() {
		if sm.tr != nil {
			sm.traceAssistEnd(e)
		}
		sm.awc.Retire(e)
		sm.releaseAssistExec(e.Exec)
	}
}

// --- Fill path ---

// onFill handles a line arriving from the memory system.
func (sm *SM) onFill(ln uint64, user any) {
	sm.touch()
	sm.record("fill delivered", ln)
	ctx := user.(*fillCtx)
	if ctx.kind == fillRefetch {
		// The uncompressed recovery copy arrived: the fault is repaired
		// and the original fill's continuation resumes with clean data.
		sm.stat.FaultsRecovered++
		sm.runCont(ctx.after)
		return
	}
	st := sm.sim.Sys.ArrivesCompressed(ln)
	proceed := cont{kind: contCompleteFill, ln: ln, fill: ctx}
	if !st.IsCompressed() {
		sm.runCont(proceed)
		return
	}
	// Bit-flip injection site: a compressed payload arriving at the SM may
	// have one bit flipped in its in-flight copy — the Domain's backing
	// copy stays intact, modeling a DRAM/bus transfer error. Only
	// decompressing designs are exposed; the ideal decompressor is an
	// oracle and reads the backing truth directly.
	injected := false
	if inj := sm.sim.Sys.Inj; inj != nil && len(st.Data) > 0 &&
		(sm.sim.Design.Decomp == config.DecompHW || sm.sim.Design.Decomp == config.DecompCABA) &&
		inj.BitFlip() {
		injected = true
		sm.stat.FaultsInjected++
		st.Data = inj.Corrupt(st.Data)
	}
	switch sm.sim.Design.Decomp {
	case config.DecompIdeal:
		sm.runCont(proceed)
	case config.DecompHW:
		d, _ := compress.HWLatency(sm.sim.Design.Alg)
		if injected {
			// The dedicated decompressor's output check catches the flip
			// after the decompression latency and refetches the raw line.
			sm.sim.Q.Push(sm.sim.Q.Now()+float64(d), actHWDetect{sm: sm, ln: ln, fill: ctx})
			return
		}
		sm.sim.Q.Push(sm.sim.Q.Now()+float64(d), actCompleteFill{sm: sm, ln: ln, fill: ctx})
	case config.DecompCABA:
		warp := 0
		switch {
		case ctx.kind == fillLoad && ctx.load != nil:
			warp = ctx.load.warp.id
		case ctx.kind == fillRMW && ctx.se != nil:
			warp = ctx.se.warp
		}
		sm.triggerDecompAW(ln, st, warp, injected, proceed)
	default:
		sm.runCont(proceed)
	}
}

// completeFill installs the line and wakes its waiters.
func (sm *SM) completeFill(ln uint64, ctx *fillCtx) {
	sm.touch()
	switch ctx.kind {
	case fillLoad:
		size := sm.sim.Cfg.LineSize
		if sm.sim.Design.L1TagMult > 1 {
			if st := sm.domState(ln); st.IsCompressed() {
				size = st.Size()
			}
		}
		sm.l1.Insert(ln, size, false)
		if sm.tr != nil {
			sm.traceMSHREnd(ln)
		}
		for _, w := range sm.mshr.Complete(ln) {
			if req, okReq := w.(*loadReq); okReq && req != nil {
				sm.loadLineDone(req)
			}
		}
	case fillRMW:
		sm.compressAndWrite(ctx.se)
	case fillAssist:
		sm.l1.Insert(ln, sm.sim.Cfg.LineSize, false)
		if sm.tr != nil {
			sm.traceMSHREnd(ln)
		}
		// A demand load may have merged onto an assist-initiated line
		// (prefetch won the race to the MSHR); its waiters complete like
		// any other fill rather than being dropped.
		for _, w := range sm.mshr.Complete(ln) {
			if req, okReq := w.(*loadReq); okReq && req != nil {
				sm.loadLineDone(req)
			}
		}
		if sm.pf != nil {
			sm.pf.lines--
			sm.pf.noteFill(ln)
		}
	}
}
