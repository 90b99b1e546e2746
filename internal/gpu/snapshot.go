package gpu

import (
	"fmt"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/mem"
	"github.com/caba-sim/caba/internal/snapshot"
	"github.com/caba-sim/caba/internal/timing"
)

// Mid-run checkpoint/restore. SaveState captures the complete simulator
// state at a cycle boundary — per-SM SIMT stacks, scoreboards, register
// files, assist-warp staging, caches, MSHRs, DRAM timing, the event heap,
// fault-injector streams and statistics — into one versioned, checksummed
// blob. LoadState restores it into a freshly built Simulator with the same
// configuration. The contract is bit-identical resume: run(N cycles),
// Save, Load into a new sim, run(M−N more) produces exactly the stats and
// error behavior of run(M) straight through, at any SMWorkers setting and
// with fast-forward on or off.
//
// Pending work is held in pointer-linked structures (loadReq, storeEntry,
// fillCtx, decompCtx, decompPlain, memoCtx) that are shared between
// warps, MSHR waiter lists, AWT entries and queued events, so every
// reference is encoded as an index into a per-type objTable. The encoder
// makes one pass: it writes the memory-system, event-queue, per-SM and
// observability sections into a body, interning each object the first
// time a reference to it is written; then it writes the payloads of the
// interned objects, which may intern further objects, until no table
// grows. The blob carries the table counts, the payload records and then
// the body, so the decoder allocates every table, fills every payload
// and only then decodes the body, resolving references back through the
// tables — preserving aliasing exactly.

// snapErrf builds a structured format error for semantic (non-framing)
// snapshot problems.
func snapErrf(format string, args ...any) error {
	return &snapshot.FormatError{Off: -1, Msg: fmt.Sprintf(format, args...)}
}

// maxGPUSnapLen bounds decoded collection lengths in the GPU section.
const maxGPUSnapLen = 1 << 22

// Top-level event-queue action kinds.
const (
	akNop uint8 = iota
	akMem
	akHWCompress
	akCompleteFill
	akHWDetect
)

// Pending-work table tags: a tagged reference (an MSHR waiter, an AWT
// entry's user, a memory action's user) names its table, and so does
// each payload record.
const (
	refNil uint8 = iota
	refFill
	refLoad
	refStore
	refDecompCtx
	refDecompPlain
	refMemo
)

// objTable is the identity table for one kind of pointer-shared
// pending-work object. Saving, ref interns an object the first time a
// reference to it is written, so indices follow first-reference order of
// the deterministic save walk, and flush emits the payload records of
// newly interned objects. Loading, alloc pre-allocates the objects, fill
// decodes their payloads in index order and get resolves range-checked
// references.
type objTable[T any] struct {
	name string     // type name for error messages
	tag  uint8      // payload record tag
	idx  map[*T]int // save side: object -> index
	objs []*T       // index -> object
	done int        // payload records written (save) or decoded (load)
}

// ref writes p's index (-1 for nil), interning p on first sight.
func (t *objTable[T]) ref(w *snapshot.Writer, p *T) {
	if p == nil {
		w.Int(-1)
		return
	}
	i, ok := t.idx[p]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[*T]int)
		}
		i = len(t.objs)
		t.idx[p] = i
		t.objs = append(t.objs, p)
	}
	w.Int(i)
}

// taggedRef writes the table's tag, then p's reference.
func (t *objTable[T]) taggedRef(w *snapshot.Writer, p *T) {
	w.U8(t.tag)
	t.ref(w, p)
}

// flush writes a tagged payload record for every object interned since
// the last call and reports whether there was any.
func (t *objTable[T]) flush(w *snapshot.Writer, enc func(*snapshot.Writer, *T)) bool {
	start := t.done
	for ; t.done < len(t.objs); t.done++ {
		w.U8(t.tag)
		enc(w, t.objs[t.done])
	}
	return t.done > start
}

// alloc pre-allocates n zero objects.
func (t *objTable[T]) alloc(n int) {
	t.objs = make([]*T, n)
	for i := range t.objs {
		t.objs[i] = new(T)
	}
}

// fill decodes the payload of the next object in index order.
func (t *objTable[T]) fill(r *snapshot.Reader, dec func(*snapshot.Reader, *T) error) error {
	if t.done >= len(t.objs) {
		return snapErrf("more %s records than %s objects", t.name, t.name)
	}
	t.done++
	return dec(r, t.objs[t.done-1])
}

// get reads a reference and resolves it (nil for -1).
func (t *objTable[T]) get(r *snapshot.Reader) (*T, error) {
	i := r.Int()
	if i == -1 || r.Err() != nil {
		return nil, r.Err()
	}
	if i < 0 || i >= len(t.objs) {
		return nil, snapErrf("%s reference %d out of range", t.name, i)
	}
	return t.objs[i], nil
}

// getAny is get for a tagged reference. A nil index decodes to a typed
// nil, exactly as it was saved (the MSHR's assist-prefetch waiter is a
// nil *loadReq).
func getAny[T any](t *objTable[T], r *snapshot.Reader) (any, error) {
	p, err := t.get(r)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// snapTables holds one objTable per pending-work type, plus what their
// payload codecs need.
type snapTables struct {
	sim    *Simulator
	loads  objTable[loadReq]
	stores objTable[storeEntry]
	fills  objTable[fillCtx]
	dcs    objTable[decompCtx]
	dps    objTable[decompPlain]
	memos  objTable[memoCtx]

	// warpSM maps each warp slot to its SM index so warp references can
	// be encoded as (sm, slot). Save side only.
	warpSM map[*warpCtx]int
}

func newSnapTables(sim *Simulator) *snapTables {
	return &snapTables{
		sim:    sim,
		loads:  objTable[loadReq]{name: "loadReq", tag: refLoad},
		stores: objTable[storeEntry]{name: "storeEntry", tag: refStore},
		fills:  objTable[fillCtx]{name: "fillCtx", tag: refFill},
		dcs:    objTable[decompCtx]{name: "decompCtx", tag: refDecompCtx},
		dps:    objTable[decompPlain]{name: "decompPlain", tag: refDecompPlain},
		memos:  objTable[memoCtx]{name: "memoCtx", tag: refMemo},
	}
}

// encUser encodes a pending-work reference (tag, then table index).
func (t *snapTables) encUser(w *snapshot.Writer, u any) error {
	switch v := u.(type) {
	case nil:
		w.U8(refNil)
	case *fillCtx:
		t.fills.taggedRef(w, v)
	case *loadReq:
		t.loads.taggedRef(w, v)
	case *storeEntry:
		t.stores.taggedRef(w, v)
	case *decompCtx:
		t.dcs.taggedRef(w, v)
	case *decompPlain:
		t.dps.taggedRef(w, v)
	case *memoCtx:
		t.memos.taggedRef(w, v)
	default:
		return snapErrf("unserializable pending-work object %T", u)
	}
	return nil
}

// decUser decodes a tagged pending-work reference.
func (t *snapTables) decUser(r *snapshot.Reader) (any, error) {
	switch tag := r.U8(); tag {
	case refNil:
		return nil, r.Err()
	case refFill:
		return getAny(&t.fills, r)
	case refLoad:
		return getAny(&t.loads, r)
	case refStore:
		return getAny(&t.stores, r)
	case refDecompCtx:
		return getAny(&t.dcs, r)
	case refDecompPlain:
		return getAny(&t.dps, r)
	case refMemo:
		return getAny(&t.memos, r)
	default:
		return nil, snapErrf("pending-work reference tag %d out of range", tag)
	}
}

func (t *snapTables) saveCont(w *snapshot.Writer, c cont) {
	w.U8(uint8(c.kind))
	w.U64(c.ln)
	t.fills.ref(w, c.fill)
	t.loads.ref(w, c.req)
}

func (t *snapTables) restoreCont(r *snapshot.Reader) (cont, error) {
	var c cont
	k := r.U8()
	if k > uint8(contLoadLineDone) {
		return c, snapErrf("continuation kind %d out of range", k)
	}
	c.kind = contKind(k)
	c.ln = r.U64()
	var err error
	if c.fill, err = t.fills.get(r); err != nil {
		return c, err
	}
	c.req, err = t.loads.get(r)
	return c, err
}

// saveWarp encodes a warp slot as (sm, slot), (-1, -1) for nil.
func (t *snapTables) saveWarp(w *snapshot.Writer, wp *warpCtx) {
	if wp == nil {
		w.Int(-1)
		w.Int(-1)
		return
	}
	w.Int(t.warpSM[wp])
	w.Int(wp.id)
}

// restoreWarp mirrors saveWarp.
func (t *snapTables) restoreWarp(r *snapshot.Reader) (*warpCtx, error) {
	smIdx, wid := r.Int(), r.Int()
	if r.Err() != nil || smIdx < 0 {
		return nil, r.Err()
	}
	if smIdx >= len(t.sim.sms) || wid < 0 || wid >= len(t.sim.sms[smIdx].warps) {
		return nil, snapErrf("warp reference out of range")
	}
	return t.sim.sms[smIdx].warps[wid], nil
}

// kernelSop re-resolves a superop PC against the kernel's decoded
// program (superops are interned per program).
func (t *snapTables) kernelSop(pc int) (*isa.Superop, error) {
	ops := t.sim.Kernel.Prog.Decoded().Ops
	if pc < 0 || pc >= len(ops) {
		return nil, snapErrf("superop pc %d out of range", pc)
	}
	return &ops[pc], nil
}

// --- Payload records ---

func (t *snapTables) saveLoad(w *snapshot.Writer, q *loadReq) {
	t.saveWarp(w, q.warp)
	if q.sop != nil {
		w.Bool(true)
		w.Int(int(q.sop.PC))
	} else {
		w.Bool(false)
	}
	w.Int(q.linesPending)
	w.U64(q.issued)
	w.Len(len(q.todo))
	for _, ln := range q.todo {
		w.U64(ln)
	}
}

func (t *snapTables) restoreLoad(r *snapshot.Reader, q *loadReq) (err error) {
	if q.warp, err = t.restoreWarp(r); err != nil {
		return err
	}
	if r.Bool() {
		if q.sop, err = t.kernelSop(r.Int()); err != nil {
			return err
		}
	}
	q.linesPending = r.Int()
	q.issued = r.U64()
	n := r.Len(maxGPUSnapLen)
	for i := 0; i < n; i++ {
		q.todo = append(q.todo, r.U64())
	}
	return r.Err()
}

func (t *snapTables) saveStore(w *snapshot.Writer, se *storeEntry) {
	w.U64(se.lineAddr)
	w.U32(se.coverage)
	w.Int(se.warp)
	w.U64(se.lastTouch)
	w.U8(uint8(se.state))
	w.Len(len(se.chain))
	for _, id := range se.chain {
		w.U64(uint64(id))
	}
	w.Int(se.chainPos)
	w.U64(uint64(se.alg))
	w.Bool(se.released)
}

func (t *snapTables) restoreStore(r *snapshot.Reader, se *storeEntry) error {
	se.lineAddr = r.U64()
	se.coverage = r.U32()
	se.warp = r.Int()
	se.lastTouch = r.U64()
	st := r.U8()
	if st > uint8(sbQueued) {
		return snapErrf("store-buffer state %d out of range", st)
	}
	se.state = storeState(st)
	n := r.Len(maxGPUSnapLen)
	for i := 0; i < n; i++ {
		se.chain = append(se.chain, core.RoutineID(r.U64()))
	}
	se.chainPos = r.Int()
	se.alg = compress.AlgID(r.U64())
	se.released = r.Bool()
	if se.chainPos < 0 || (len(se.chain) > 0 && se.chainPos > len(se.chain)) {
		return snapErrf("compression chain position out of range")
	}
	return r.Err()
}

func (t *snapTables) saveFill(w *snapshot.Writer, fc *fillCtx) {
	w.U8(uint8(fc.kind))
	t.loads.ref(w, fc.load)
	t.stores.ref(w, fc.se)
	t.saveCont(w, fc.after)
}

func (t *snapTables) restoreFill(r *snapshot.Reader, fc *fillCtx) (err error) {
	k := r.U8()
	if k > uint8(fillRefetch) {
		return snapErrf("fill kind %d out of range", k)
	}
	fc.kind = fillKind(k)
	if fc.load, err = t.loads.get(r); err != nil {
		return err
	}
	if fc.se, err = t.stores.get(r); err != nil {
		return err
	}
	fc.after, err = t.restoreCont(r)
	return err
}

func (t *snapTables) saveDC(w *snapshot.Writer, dc *decompCtx) {
	w.U64(dc.ln)
	w.Int(dc.warp)
	w.Bool(dc.injected)
	t.saveCont(w, dc.done)
	w.Bytes(dc.buf[:])
}

func (t *snapTables) restoreDC(r *snapshot.Reader, dc *decompCtx) (err error) {
	dc.ln = r.U64()
	dc.warp = r.Int()
	dc.injected = r.Bool()
	if dc.done, err = t.restoreCont(r); err != nil {
		return err
	}
	buf := r.Bytes(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	if len(buf) != len(dc.buf) {
		return snapErrf("decompression buffer length %d, want %d", len(buf), len(dc.buf))
	}
	copy(dc.buf[:], buf)
	return nil
}

func (t *snapTables) saveDP(w *snapshot.Writer, dp *decompPlain) {
	w.U64(dp.ln)
	t.saveCont(w, dp.done)
}

func (t *snapTables) restoreDP(r *snapshot.Reader, dp *decompPlain) (err error) {
	dp.ln = r.U64()
	dp.done, err = t.restoreCont(r)
	return err
}

// A memoCtx always carries its parent warp and superop.
func (t *snapTables) saveMemo(w *snapshot.Writer, mc *memoCtx) {
	t.saveWarp(w, mc.w)
	w.Int(int(mc.sop.PC))
}

func (t *snapTables) restoreMemo(r *snapshot.Reader, mc *memoCtx) (err error) {
	if mc.w, err = t.restoreWarp(r); err != nil {
		return err
	}
	if mc.w == nil {
		return snapErrf("memoCtx without a parent warp")
	}
	mc.sop, err = t.kernelSop(r.Int())
	return err
}

// encAction encodes a queued event action (GPU kinds inline, memory kinds
// via the memory system's codec).
func (t *snapTables) encAction(w *snapshot.Writer, act timing.Action) error {
	switch a := act.(type) {
	case timing.Nop:
		w.U8(akNop)
	case actHWCompress:
		w.U8(akHWCompress)
		w.Int(a.sm.id)
		t.stores.ref(w, a.se)
	case actCompleteFill:
		w.U8(akCompleteFill)
		w.Int(a.sm.id)
		w.U64(a.ln)
		t.fills.ref(w, a.fill)
	case actHWDetect:
		w.U8(akHWDetect)
		w.Int(a.sm.id)
		w.U64(a.ln)
		t.fills.ref(w, a.fill)
	default:
		if timing.IsOpaque(act) {
			return snapErrf("opaque closure event on the queue (cannot checkpoint)")
		}
		w.U8(akMem)
		return t.sim.Sys.EncodeAction(w, act, t.encUser)
	}
	return nil
}

// decAction decodes a queued event action.
func (t *snapTables) decAction(r *snapshot.Reader) (timing.Action, error) {
	smFor := func() (*SM, error) {
		i := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if i < 0 || i >= len(t.sim.sms) {
			return nil, snapErrf("SM index %d out of range", i)
		}
		return t.sim.sms[i], nil
	}
	switch kind := r.U8(); kind {
	case akNop:
		return timing.Nop{}, r.Err()
	case akMem:
		return t.sim.Sys.DecodeAction(r, t.decUser)
	case akHWCompress:
		sm, err := smFor()
		if err != nil {
			return nil, err
		}
		se, err := t.stores.get(r)
		if err != nil {
			return nil, err
		}
		return actHWCompress{sm: sm, se: se}, nil
	case akCompleteFill, akHWDetect:
		sm, err := smFor()
		if err != nil {
			return nil, err
		}
		ln := r.U64()
		fc, err := t.fills.get(r)
		if err != nil {
			return nil, err
		}
		if kind == akHWDetect {
			return actHWDetect{sm: sm, ln: ln, fill: fc}, nil
		}
		return actCompleteFill{sm: sm, ln: ln, fill: fc}, nil
	default:
		return nil, snapErrf("event action kind %d out of range", kind)
	}
}

// configHash binds a snapshot to the run it came from: configuration,
// design and kernel identity, over config.Canonical — the zeroed knobs
// may differ between the saving and resuming process without affecting
// simulated state. SampleEvery and AttributeStalls stay hashed: they
// determine the snapshot's obs payload geometry, and a resumed run can
// only emit the identical metrics series under the identical cadence.
func (sim *Simulator) configHash() (uint64, error) {
	k := sim.Kernel
	return snapshot.HashPlain(sim.Cfg.Canonical(), sim.Design, k.Prog.Name, len(k.Prog.Code),
		k.Prog.NumReg, k.GridCTAs, k.CTAThreads, k.SharedMem, k.Params)
}

// SaveState serializes the complete simulator state into a sealed blob.
// It must be called at a cycle boundary with per-cycle staging committed —
// Run's checkpoint hook satisfies this; callers between Run invocations
// (a finished or interrupted sim) do too, provided no SM has failed.
func (sim *Simulator) SaveState() ([]byte, error) {
	t := newSnapTables(sim)
	t.warpSM = make(map[*warpCtx]int)
	for _, sm := range sim.sms {
		if !sm.outbox.Empty() || !sm.wbuf.Empty() || sm.wantDispatch {
			return nil, fmt.Errorf("gpu: snapshot at cycle %d: SM %d has uncommitted staged state", sim.cycle, sm.id)
		}
		if sm.fatal != nil {
			return nil, fmt.Errorf("gpu: snapshot at cycle %d: SM %d has a fatal error: %w", sim.cycle, sm.id, sm.fatal)
		}
		for _, wp := range sm.warps {
			t.warpSM[wp] = sm.id
		}
	}

	// Body, interning pending-work objects as it goes. Memory system
	// (caches, MSHRs, DRAM timing, injector streams):
	body := &snapshot.Writer{}
	if err := sim.Sys.SaveState(body, t.encAction, t.encUser); err != nil {
		return nil, err
	}

	// Event queue.
	now, seq, evs := sim.Q.Snapshot()
	body.F64(now)
	body.U64(seq)
	body.Len(len(evs))
	for _, ev := range evs {
		body.F64(ev.Time)
		body.U64(ev.Seq)
		if err := t.encAction(body, ev.Act); err != nil {
			return nil, err
		}
	}

	// Per-SM sections.
	for _, sm := range sim.sms {
		if err := sm.save(body, t); err != nil {
			return nil, err
		}
	}

	// Observability state. Which subsections exist is pinned by the
	// config hash (SampleEvery and AttributeStalls are hashed), so the
	// saving and resuming processes always agree on the layout. The
	// sampler carries its cursor and every recorded row, making a
	// resumed run's series identical to the uninterrupted one; the
	// attribution tables carry their cumulative counts. Trace state is
	// deliberately absent — a resumed run re-opens spans for live
	// entities and its trace covers restore→end.
	if sim.smp != nil {
		sim.smp.save(body)
	}
	if sim.Cfg.AttributeStalls {
		for _, sm := range sim.sms {
			sm.attr.Save(body)
		}
	}

	// Payload records of every interned object; a payload may reference
	// objects the body never did, so repeat until no table grows.
	recs := &snapshot.Writer{}
	for grew := true; grew; {
		grew = t.loads.flush(recs, t.saveLoad)
		grew = t.stores.flush(recs, t.saveStore) || grew
		grew = t.fills.flush(recs, t.saveFill) || grew
		grew = t.dcs.flush(recs, t.saveDC) || grew
		grew = t.dps.flush(recs, t.saveDP) || grew
		grew = t.memos.flush(recs, t.saveMemo) || grew
	}

	// Simulator scalars and statistics (the cycle counter first:
	// SnapshotCycle reads it), backing memory, compression domain, then
	// the table counts, the payload records and the body.
	w := &snapshot.Writer{}
	w.U64(sim.cycle)
	w.Int(sim.nextCTA)
	w.Int(sim.idleStreak)
	w.U64(sim.ffSkips)
	w.U64(sim.ffCycles)
	if err := snapshot.EncodePlain(w, *sim.S); err != nil {
		return nil, err
	}
	sim.Mem.Save(w)
	sim.Dom.Save(w)
	w.Len(len(t.loads.objs))
	w.Len(len(t.stores.objs))
	w.Len(len(t.fills.objs))
	w.Len(len(t.dcs.objs))
	w.Len(len(t.dps.objs))
	w.Len(len(t.memos.objs))
	w.Raw(recs.Payload())
	w.Raw(body.Payload())

	hash, err := sim.configHash()
	if err != nil {
		return nil, err
	}
	return snapshot.Seal(hash, w.Payload()), nil
}

// save serializes one SM.
func (sm *SM) save(w *snapshot.Writer, t *snapTables) error {
	// Scalars.
	w.U64(sm.sfuFree)
	w.U64(sm.lsuFree)
	if sm.greedy != nil {
		w.Int(sm.greedy.id)
	} else {
		w.Int(-1)
	}
	w.U64(uint64(sm.lastGoodEnc))
	w.Bool(sm.hasLastGood)
	w.Int(sm.compFailStreak)
	w.Bool(sm.compDisabled)
	w.Bool(sm.qTry)
	w.U64(sm.cycle)
	if err := snapshot.EncodePlain(w, sm.stat); err != nil {
		return err
	}

	// CTAs, then warps (warps reference CTAs by index).
	w.Len(len(sm.ctas))
	for _, cta := range sm.ctas {
		w.Int(cta.id)
		w.Bytes(cta.shared)
		w.Int(cta.liveWarps)
		w.Int(cta.atBarrier)
		w.Len(len(cta.warps))
		for _, cw := range cta.warps {
			w.Int(cw.id)
		}
	}
	for _, wp := range sm.warps {
		w.Bool(wp.valid)
		if !wp.valid {
			continue
		}
		ctaIdx := -1
		for i, cta := range sm.ctas {
			if cta == wp.cta {
				ctaIdx = i
				break
			}
		}
		if ctaIdx < 0 {
			return snapErrf("valid warp without a resident CTA")
		}
		w.Int(ctaIdx)
		g, p := wp.sb.Bits()
		for _, v := range g {
			w.U64(v)
		}
		w.U8(p)
		w.Int(wp.inFlight)
		w.Int(wp.pendingLoads)
		t.loads.ref(w, wp.replay)
		w.U64(wp.lastIssueCycle)
		wp.exec.Save(w, false)
	}

	// Assist-warp controller (entries carry opaque User refs; the
	// writeback ring below references entries by AWT position).
	if err := sm.awc.Save(w, func(w *snapshot.Writer, e *core.Entry) error {
		return t.encUser(w, e.User)
	}); err != nil {
		return err
	}

	// L1 cache and MSHR.
	sm.l1.Save(w)
	if err := sm.mshr.Save(w, t.encUser); err != nil {
		return err
	}

	// Writeback ring, bucket by bucket.
	ents := sm.awc.Entries()
	entIdx := make(map[*core.Entry]int, len(ents))
	for i, e := range ents {
		entIdx[e] = i
	}
	w.Len(len(sm.wbRing))
	for i := range sm.wbRing {
		w.Len(len(sm.wbRing[i]))
		for j := range sm.wbRing[i] {
			rec := &sm.wbRing[i][j]
			w.U8(uint8(rec.kind))
			// Superops are interned per program: a PC is enough to
			// re-resolve (kernel program for wbWarp, the entry's routine
			// for wbAssist; wbLoad records carry no superop).
			if rec.sop != nil {
				w.Int(int(rec.sop.PC))
			} else {
				w.Int(-1)
			}
			if rec.w != nil {
				w.Int(rec.w.id)
			} else {
				w.Int(-1)
			}
			if rec.e != nil {
				idx, ok := entIdx[rec.e]
				if !ok {
					return snapErrf("writeback record references a retired AWT entry")
				}
				w.Int(idx)
			} else {
				w.Int(-1)
			}
			t.loads.ref(w, rec.req)
		}
	}

	// Retry queues and the store buffer.
	w.Len(len(sm.decompRetry))
	for i := range sm.decompRetry {
		pt := &sm.decompRetry[i]
		w.U8(uint8(pt.kind))
		t.stores.ref(w, pt.se)
		w.U64(pt.ln)
		mem.SaveCompressed(w, pt.st)
		w.Int(pt.warp)
		t.saveCont(w, pt.done)
		t.dcs.ref(w, pt.dc)
	}
	w.Len(len(sm.replayQ))
	for _, q := range sm.replayQ {
		t.loads.ref(w, q)
	}
	w.Len(len(sm.storeBuf))
	for _, se := range sm.storeBuf {
		t.stores.ref(w, se)
	}

	// Use-case hardware (layout gated by the hashed Design, so saver and
	// loader always agree on which sub-sections are present).
	sm.saveUseCases(w)
	return nil
}

// SnapshotCycle reads the simulated cycle a checkpoint blob was taken at
// without restoring it (the cycle counter is the payload's first field).
// It validates the container's integrity — magic, version, length, CRC —
// but not the configuration hash, so blob custodians (the farm
// coordinator's checkpoint store, progress reporting) can use it on blobs
// for simulators they never build. Corrupt blobs return a structured
// error, never a bogus cycle.
func SnapshotCycle(blob []byte) (uint64, error) {
	_, payload, err := snapshot.Inspect(blob)
	if err != nil {
		return 0, err
	}
	r := snapshot.NewReader(payload)
	cycle := r.U64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return cycle, nil
}

// LoadState restores a snapshot produced by SaveState into this freshly
// built simulator. The blob's embedded configuration hash must match this
// simulator's configuration, design and kernel identity. On any error the
// simulator is unusable and must be discarded; LoadState never panics on
// corrupted input.
func (sim *Simulator) LoadState(blob []byte) (err error) {
	defer func() {
		// The decoder validates lengths, enum ranges and references
		// explicitly; the backstop converts any escaped decode panic on
		// adversarial input into a structured error.
		if p := recover(); p != nil {
			err = snapErrf("snapshot decode panic: %v", p)
		}
	}()
	hash, err := sim.configHash()
	if err != nil {
		return err
	}
	payload, err := snapshot.Open(blob, hash)
	if err != nil {
		return err
	}
	r := snapshot.NewReader(payload)

	// Simulator scalars and statistics.
	sim.cycle = r.U64()
	sim.nextCTA = r.Int()
	sim.idleStreak = r.Int()
	sim.ffSkips = r.U64()
	sim.ffCycles = r.U64()
	if err := snapshot.DecodePlain(r, sim.S); err != nil {
		return err
	}
	if sim.nextCTA < 0 || sim.nextCTA > sim.Kernel.GridCTAs {
		return snapErrf("dispatch cursor out of range")
	}

	// Backing memory and compression domain.
	if err := sim.Mem.Load(r); err != nil {
		return err
	}
	if err := sim.Dom.Load(r); err != nil {
		return err
	}

	// Object tables: allocate, then fill every payload before any body
	// decoder can see an object.
	t := newSnapTables(sim)
	total := 0
	for _, alloc := range []func(int){t.loads.alloc, t.stores.alloc, t.fills.alloc, t.dcs.alloc, t.dps.alloc, t.memos.alloc} {
		n := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		alloc(n)
		total += n
	}
	for ; total > 0; total-- {
		var err error
		switch tag := r.U8(); tag {
		case refLoad:
			err = t.loads.fill(r, t.restoreLoad)
		case refStore:
			err = t.stores.fill(r, t.restoreStore)
		case refFill:
			err = t.fills.fill(r, t.restoreFill)
		case refDecompCtx:
			err = t.dcs.fill(r, t.restoreDC)
		case refDecompPlain:
			err = t.dps.fill(r, t.restoreDP)
		case refMemo:
			err = t.memos.fill(r, t.restoreMemo)
		default:
			err = snapErrf("payload record tag %d out of range", tag)
		}
		if err == nil {
			err = r.Err()
		}
		if err != nil {
			return err
		}
	}

	// Memory system.
	if err := sim.Sys.LoadState(r, t.decAction, t.decUser); err != nil {
		return err
	}

	// Event queue.
	now := r.F64()
	seq := r.U64()
	n := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	evs := make([]timing.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev timing.Event
		ev.Time = r.F64()
		ev.Seq = r.U64()
		if ev.Act, err = t.decAction(r); err != nil {
			return err
		}
		evs = append(evs, ev)
	}
	sim.Q.Restore(now, seq, evs)

	// Per-SM sections.
	for _, sm := range sim.sms {
		if err := sm.load(r, t); err != nil {
			return err
		}
	}

	// Observability state (mirrors SaveState's section layout).
	if sim.smp != nil {
		if err := sim.smp.load(r); err != nil {
			return err
		}
	}
	if sim.Cfg.AttributeStalls {
		for _, sm := range sim.sms {
			if err := sm.attr.Load(r); err != nil {
				return err
			}
		}
	}

	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return snapErrf("%d trailing bytes after snapshot payload", r.Remaining())
	}
	// Open trace spans for every entity live in the restored state, so
	// the resumed run's trace closes cleanly and validates.
	sim.reopenTraceSpans()
	sim.restored = true
	return nil
}

// load restores one SM from its snapshot section.
func (sm *SM) load(r *snapshot.Reader, t *snapTables) error {
	k := sm.sim.Kernel

	// Scalars.
	sm.sfuFree = r.U64()
	sm.lsuFree = r.U64()
	greedyID := r.Int()
	sm.lastGoodEnc = compress.BDIEncoding(r.U64())
	sm.hasLastGood = r.Bool()
	sm.compFailStreak = r.Int()
	sm.compDisabled = r.Bool()
	sm.qTry = r.Bool()
	sm.cycle = r.U64()
	if err := snapshot.DecodePlain(r, &sm.stat); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}
	if greedyID >= len(sm.warps) {
		return snapErrf("greedy warp id out of range")
	}
	sm.greedy = nil
	if greedyID >= 0 {
		sm.greedy = sm.warps[greedyID]
	}

	// CTAs.
	nCTA := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.ctas = sm.ctas[:0]
	sm.drainingCTAs = 0
	for i := 0; i < nCTA; i++ {
		cta := &ctaCtx{id: r.Int()}
		cta.shared = append([]byte(nil), r.Bytes(maxGPUSnapLen)...)
		cta.liveWarps = r.Int()
		if cta.liveWarps == 0 {
			sm.drainingCTAs++
		}
		cta.atBarrier = r.Int()
		nw := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		for j := 0; j < nw; j++ {
			wid := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if wid < 0 || wid >= len(sm.warps) {
				return snapErrf("CTA warp id out of range")
			}
			cta.warps = append(cta.warps, sm.warps[wid])
		}
		sm.ctas = append(sm.ctas, cta)
	}

	// Warps.
	for _, wp := range sm.warps {
		*wp = warpCtx{id: wp.id}
		wp.valid = r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		if !wp.valid {
			continue
		}
		ctaIdx := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if ctaIdx < 0 || ctaIdx >= len(sm.ctas) {
			return snapErrf("warp CTA index out of range")
		}
		wp.cta = sm.ctas[ctaIdx]
		var g [4]uint64
		for i := range g {
			g[i] = r.U64()
		}
		wp.sb.SetBits(g, r.U8())
		wp.inFlight = r.Int()
		wp.pendingLoads = r.Int()
		var err error
		if wp.replay, err = t.loads.get(r); err != nil {
			return err
		}
		wp.lastIssueCycle = r.U64()
		wp.depStalled = false // pure caches: recomputed on the next probe
		wp.idle = false
		wp.exec = core.NewExec(k.Prog, 0)
		wp.exec.Interp = sm.sim.Cfg.Interpreter
		if err := wp.exec.Load(r, k.Prog, false); err != nil {
			return err
		}
		wp.exec.Shared = wp.cta.shared
		wp.exec.Mem = sm.wbuf
	}

	// Assist-warp controller.
	if err := sm.awc.Load(r, func(r *snapshot.Reader, e *core.Entry) error {
		e.Exec.Interp = sm.sim.Cfg.Interpreter
		user, err := t.decUser(r)
		if err != nil {
			return err
		}
		e.User = user
		e.OnComplete = sm.assistOnComplete(user, e.Routine.ID)
		if e.OnComplete == nil {
			return snapErrf("AWT entry with no restorable completion")
		}
		return nil
	}); err != nil {
		return err
	}

	// L1 cache and MSHR.
	if err := sm.l1.Load(r); err != nil {
		return err
	}
	if err := sm.mshr.Load(r, t.decUser); err != nil {
		return err
	}

	// Writeback ring.
	ents := sm.awc.Entries()
	nb := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	if nb != len(sm.wbRing) {
		return snapErrf("writeback ring size mismatch")
	}
	sm.wbPending = 0
	for i := range sm.wbRing {
		sm.wbRing[i] = sm.wbRing[i][:0]
		nr := r.Len(maxGPUSnapLen)
		if r.Err() != nil {
			return r.Err()
		}
		for j := 0; j < nr; j++ {
			var rec wbRec
			kind := r.U8()
			if kind > uint8(wbLoad) {
				return snapErrf("writeback kind %d out of range", kind)
			}
			rec.kind = wbKind(kind)
			pc := r.Int()
			wid := r.Int()
			eid := r.Int()
			if r.Err() != nil {
				return r.Err()
			}
			if wid >= len(sm.warps) || eid >= len(ents) {
				return snapErrf("writeback reference out of range")
			}
			if wid >= 0 {
				rec.w = sm.warps[wid]
			}
			if eid >= 0 {
				rec.e = ents[eid]
			}
			// Re-resolve the superop against its owning program: the
			// kernel's for warp records, the AWT entry's routine for
			// assist records (entries were decoded above).
			if pc >= 0 {
				var ops []isa.Superop
				switch {
				case rec.e != nil:
					ops = rec.e.Routine.Prog.Decoded().Ops
				default:
					ops = sm.sim.Kernel.Prog.Decoded().Ops
				}
				if pc >= len(ops) {
					return snapErrf("writeback pc %d out of range", pc)
				}
				rec.sop = &ops[pc]
			}
			var err error
			if rec.req, err = t.loads.get(r); err != nil {
				return err
			}
			sm.wbRing[i] = append(sm.wbRing[i], rec)
			sm.wbPending++
		}
	}

	// Retry queues and the store buffer.
	nRetry := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.decompRetry = sm.decompRetry[:0]
	for i := 0; i < nRetry; i++ {
		var pt pendingTrigger
		kind := r.U8()
		if kind > uint8(pendECC) {
			return snapErrf("pending-trigger kind %d out of range", kind)
		}
		pt.kind = pendingKind(kind)
		var err error
		if pt.se, err = t.stores.get(r); err != nil {
			return err
		}
		pt.ln = r.U64()
		pt.st = mem.LoadCompressed(r)
		pt.warp = r.Int()
		if pt.done, err = t.restoreCont(r); err != nil {
			return err
		}
		if pt.dc, err = t.dcs.get(r); err != nil {
			return err
		}
		sm.decompRetry = append(sm.decompRetry, pt)
	}
	nReplay := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.replayQ = sm.replayQ[:0]
	for i := 0; i < nReplay; i++ {
		q, err := t.loads.get(r)
		if err != nil {
			return err
		}
		if q == nil {
			return snapErrf("nil loadReq in replay queue")
		}
		sm.replayQ = append(sm.replayQ, q)
	}
	nStore := r.Len(maxGPUSnapLen)
	if r.Err() != nil {
		return r.Err()
	}
	sm.storeBuf = sm.storeBuf[:0]
	for i := 0; i < nStore; i++ {
		se, err := t.stores.get(r)
		if err != nil {
			return err
		}
		if se == nil {
			return snapErrf("nil storeEntry in store buffer")
		}
		sm.storeBuf = append(sm.storeBuf, se)
	}

	// Use-case hardware.
	if err := sm.loadUseCases(r); err != nil {
		return err
	}

	// Scratch and caches rebuilt from scratch on the next tick.
	sm.orderDirty = true
	sm.order = sm.order[:0]
	sm.issuedBuf = sm.issuedBuf[:0]
	sm.qValid = false
	return r.Err()
}
