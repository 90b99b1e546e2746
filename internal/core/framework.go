package core

import (
	"fmt"

	"github.com/caba-sim/caba/internal/isa"
)

// Priority is an assist warp's scheduling priority (Section 3.2.3):
// high-priority warps (decompression) are required for correctness and
// take precedence over their parent warp; low-priority warps (compression)
// run only in idle issue slots and carry no completion guarantee.
type Priority uint8

// Priorities.
const (
	PriLow Priority = iota
	PriHigh
)

// RoutineID indexes the Assist Warp Store (the paper's SR.ID).
type RoutineID uint16

// Routine is one assist-warp subroutine: its code, static priority and
// static lane mask (Section 3.4: the active mask provides flexibility when
// fewer than 32 lanes are needed).
type Routine struct {
	ID         RoutineID
	Name       string
	Prog       *isa.Program
	Priority   Priority
	ActiveMask uint32
}

// Store is the Assist Warp Store (AWS): on-chip storage preloaded with
// subroutine code before the application runs, indexed by SR.ID (and
// walked by Inst.ID as the AWC deploys instructions).
type Store struct {
	// routines is indexed by RoutineID: the IDs are dense and small, and
	// a slice lookup keeps per-trigger routine fetches off Go's map hash.
	routines []*Routine
	n        int
	// TotalInstrs approximates the AWS's storage requirement.
	TotalInstrs int
}

// NewStore returns an empty AWS.
func NewStore() *Store {
	return &Store{}
}

// Preload installs a routine; duplicate IDs are an error.
func (s *Store) Preload(r *Routine) error {
	if r.Prog == nil || len(r.Prog.Code) == 0 {
		return fmt.Errorf("core: routine %q has no code", r.Name)
	}
	if _, dup := s.Get(r.ID); dup {
		return fmt.Errorf("core: duplicate routine id %d (%q)", r.ID, r.Name)
	}
	for int(r.ID) >= len(s.routines) {
		s.routines = append(s.routines, nil)
	}
	s.routines[r.ID] = r
	s.n++
	s.TotalInstrs += len(r.Prog.Code)
	return nil
}

// Get looks up a routine by ID.
func (s *Store) Get(id RoutineID) (*Routine, bool) {
	if int(id) < len(s.routines) {
		if r := s.routines[id]; r != nil {
			return r, true
		}
	}
	return nil, false
}

// MustGet looks up a routine that is known to be preloaded.
func (s *Store) MustGet(id RoutineID) *Routine {
	r, ok := s.Get(id)
	if !ok {
		panic(fmt.Sprintf("core: routine %d not preloaded", id))
	}
	return r
}

// Len returns the number of preloaded routines.
func (s *Store) Len() int { return s.n }

// Entry is one Assist Warp Table (AWT) entry: a triggered assist warp
// coupled to its parent warp, tracking the next instruction to deploy
// (Inst.ID) via its execution context, plus live-in/live-out bookkeeping.
type Entry struct {
	Routine *Routine
	// Pri mirrors Routine.Priority so the per-cycle deploy scan reads one
	// byte here instead of chasing the Routine pointer.
	Pri  Priority
	Warp int // parent warp index within the SM
	Exec *Exec

	// Staged counts instructions deployed into the AWB but not yet issued.
	Staged int
	// Outstanding counts issued instructions not yet written back.
	Outstanding int

	// SB is the assist warp's issue scoreboard over its reserved register
	// slice; embedding it here avoids a per-entry side-table.
	SB RegMask

	Killed bool
	User   any // opaque owner context (e.g. the pending load this unblocks)

	// OnComplete fires when the routine has executed its last instruction
	// and all writebacks have drained.
	OnComplete func(*Entry)
}

// Done reports whether the assist warp has finished executing.
func (e *Entry) Done() bool {
	return e.Killed || (e.Exec.Done && e.Staged == 0 && e.Outstanding == 0)
}

// Controller is the Assist Warp Controller (AWC): it triggers assist warps
// on events, tracks them in the AWT, deploys their instructions
// round-robin into the Assist Warp Buffer, and throttles low-priority
// deployment by monitoring pipeline utilization (Section 3.4, Dynamic
// Feedback and Throttling).
type Controller struct {
	Store *Store

	// MaxEntries bounds the AWT (one slot per hardware warp context, so
	// every parent warp can host an assist warp).
	MaxEntries int
	// DeployBW is the maximum instructions staged per cycle (decode
	// bandwidth shared with the front-end).
	DeployBW int
	// StagedCap is the per-entry AWB staging capacity.
	StagedCap int

	// Low-priority AWB partition: the dedicated two-entry IB partition.
	LowCap int

	entries []*Entry
	rr      int

	// highByWarp gives O(1) lookup of the high-priority assist warp
	// attached to a parent warp (at most one: only a single instance of
	// each routine per parent, Section 3.2.2). A slice indexed by warp
	// slot, grown on demand: CanTrigger sits on the per-trigger
	// findAssistHost scan, where a map lookup is measurably hotter.
	highByWarp []*Entry
	lowList    []*Entry

	// Utilization monitor: a sliding window of issue-slot business.
	window     [64]bool
	windowPos  int
	windowBusy int

	// drained short-circuits Tick's deploy scan: it is set when an
	// unthrottled full scan staged nothing, and cleared whenever staging
	// capacity can reappear (an instruction is consumed from the AWB, or
	// a new entry is triggered). It is a pure strategy hint — Tick's
	// architected effects (Staged, DeployedIns, rr rotation) are
	// identical with or without it — and is not serialized; Load clears
	// it so a restored controller rescans conservatively.
	drained bool

	// Stats.
	Triggered   uint64
	KilledCount uint64
	DeployedIns uint64
}

// NewController builds an AWC.
func NewController(store *Store, maxEntries int) *Controller {
	return &Controller{
		Store:      store,
		MaxEntries: maxEntries,
		DeployBW:   4,
		StagedCap:  4,
		LowCap:     2,
	}
}

// highFor is the slice-backed lookup behind HighFor/CanTrigger.
func (c *Controller) highFor(warp int) *Entry {
	if warp < len(c.highByWarp) {
		return c.highByWarp[warp]
	}
	return nil
}

// setHigh installs (or clears, with nil) the high-priority entry for a
// parent warp, growing the slice to cover the slot.
func (c *Controller) setHigh(warp int, e *Entry) {
	for warp >= len(c.highByWarp) {
		c.highByWarp = append(c.highByWarp, nil)
	}
	c.highByWarp[warp] = e
}

// CanTrigger reports whether a new assist warp of the given priority can
// be accepted for parent warp `warp`.
func (c *Controller) CanTrigger(pri Priority, warp int) bool {
	if len(c.entries) >= c.MaxEntries {
		return false
	}
	if pri == PriHigh {
		return c.highFor(warp) == nil
	}
	return len(c.lowList) < c.LowCap
}

// Trigger creates an AWT entry running routine rt on behalf of warp. exec
// must be freshly built for the routine (registers, staging buffers and
// live-ins populated by the caller, which models the MOVE instructions
// that copy live-in data, Section 3.4). Returns nil if the AWT or the
// relevant AWB partition is full.
func (c *Controller) Trigger(rt *Routine, warp int, exec *Exec, user any, onComplete func(*Entry)) *Entry {
	if !c.CanTrigger(rt.Priority, warp) {
		return nil
	}
	e := &Entry{Routine: rt, Pri: rt.Priority, Warp: warp, Exec: exec, User: user, OnComplete: onComplete}
	c.entries = append(c.entries, e)
	if rt.Priority == PriHigh {
		c.setHigh(warp, e)
	} else {
		c.lowList = append(c.lowList, e)
	}
	c.Triggered++
	c.drained = false
	return e
}

// NoteIssueSlot feeds the utilization monitor: busy is true when the slot
// issued an instruction.
func (c *Controller) NoteIssueSlot(busy bool) {
	if c.window[c.windowPos] {
		c.windowBusy--
	}
	c.window[c.windowPos] = busy
	if busy {
		c.windowBusy++
	}
	c.windowPos = (c.windowPos + 1) % len(c.window)
}

// NoteIdleSlots advances the utilization monitor by n idle slots, exactly
// as if NoteIssueSlot(false) had been called n times. The fast-forward
// engine uses it to credit skipped cycles in bulk; once n covers the whole
// window the update collapses to a clear plus a position rotation.
func (c *Controller) NoteIdleSlots(n int) {
	if n >= len(c.window) {
		for i := range c.window {
			c.window[i] = false
		}
		c.windowBusy = 0
		c.windowPos = (c.windowPos + n) % len(c.window)
		return
	}
	for i := 0; i < n; i++ {
		c.NoteIssueSlot(false)
	}
}

// Idle reports whether the AWT holds no assist warps (the controller's
// Tick and issue paths are guaranteed no-ops).
func (c *Controller) Idle() bool { return len(c.entries) == 0 }

// Full reports whether the AWT has no free entry slot (CanTrigger is
// false for every priority and warp).
func (c *Controller) Full() bool { return len(c.entries) >= c.MaxEntries }

// Utilization returns the fraction of recent issue slots that were busy.
func (c *Controller) Utilization() float64 {
	return float64(c.windowBusy) / float64(len(c.window))
}

// LowPriorityThrottled reports whether low-priority deployment should be
// withheld because the pipelines are already saturated.
func (c *Controller) LowPriorityThrottled() bool {
	return c.Utilization() > 0.90
}

// Tick deploys up to DeployBW instructions into the AWB, round-robin over
// AWT entries, respecting per-entry staging capacity and the low-priority
// throttle. High-priority (blocking, correctness-critical) assist warps
// consume deploy bandwidth first; low-priority warps use what is left.
func (c *Controller) Tick() {
	if len(c.entries) == 0 {
		return
	}
	n := len(c.entries)
	if c.drained {
		c.rr = (c.rr + 1) % n
		return
	}
	credits := c.DeployBW
	deploy := func(pri Priority) {
		for scanned := 0; scanned < n && credits > 0; scanned++ {
			e := c.entries[(c.rr+scanned)%n]
			// Cheapest rejections first; the conditions are pure, so the
			// order does not change which entries are skipped.
			if e.Pri != pri || e.Staged >= c.StagedCap || e.Killed || e.Exec.Done {
				continue
			}
			e.Staged++
			c.DeployedIns++
			credits--
		}
	}
	deploy(PriHigh)
	throttled := c.LowPriorityThrottled()
	if !throttled {
		deploy(PriLow)
	}
	if credits == c.DeployBW && !throttled {
		// Nothing staged on a full, unthrottled scan: every entry is at
		// capacity, killed, or done. None of those revert except through
		// NoteConsumed/Trigger, which re-arm the scan.
		c.drained = true
	}
	c.rr = (c.rr + 1) % n
}

// NoteConsumed tells the controller an instruction left the AWB (an SM
// issued a staged assist instruction), so a capacity-full entry may have
// room again and the deploy scan must resume.
func (c *Controller) NoteConsumed() { c.drained = false }

// HighFor returns the high-priority assist warp attached to warp, if any.
func (c *Controller) HighFor(warp int) *Entry { return c.highFor(warp) }

// LowEntries returns the low-priority partition contents.
func (c *Controller) LowEntries() []*Entry { return c.lowList }

// Entries returns all live AWT entries.
func (c *Controller) Entries() []*Entry { return c.entries }

// Retire removes a finished or killed entry from the AWT and AWB
// partitions and fires its completion callback (unless killed).
func (c *Controller) Retire(e *Entry) {
	for i, x := range c.entries {
		if x == e {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			break
		}
	}
	if c.highFor(e.Warp) == e {
		c.highByWarp[e.Warp] = nil
	}
	for i, x := range c.lowList {
		if x == e {
			c.lowList = append(c.lowList[:i], c.lowList[i+1:]...)
			break
		}
	}
	if !e.Killed && e.OnComplete != nil {
		e.OnComplete(e)
	}
}

// Kill flushes an assist warp (Section 3.4: entries in the AWT and AWB are
// simply flushed when the warp is no longer required or beneficial).
func (c *Controller) Kill(e *Entry) {
	if e.Killed {
		return
	}
	e.Killed = true
	e.Staged = 0
	c.KilledCount++
	c.Retire(e)
}
