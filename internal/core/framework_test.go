package core

import (
	"testing"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/isa"
)

func testRoutinePair() (hi, lo *Routine) {
	prog := isa.MustAssemble("r", `
  movi r0, 1
  movi r0, 2
  movi r0, 3
  exit`)
	hi = &Routine{ID: 100, Name: "hi", Prog: prog, Priority: PriHigh, ActiveMask: FullMask}
	lo = &Routine{ID: 101, Name: "lo", Prog: prog, Priority: PriLow, ActiveMask: FullMask}
	return
}

func TestStorePreloadAndDuplicates(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	if err := s.Preload(hi); err != nil {
		t.Fatal(err)
	}
	if err := s.Preload(hi); err == nil {
		t.Error("duplicate preload should error")
	}
	if _, ok := s.Get(100); !ok {
		t.Error("preloaded routine not found")
	}
	if s.TotalInstrs != 4 {
		t.Errorf("TotalInstrs = %d", s.TotalInstrs)
	}
	empty := &Routine{ID: 102, Name: "empty", Prog: &isa.Program{Name: "e", NumReg: 1}}
	if err := s.Preload(empty); err == nil {
		t.Error("empty routine should be rejected")
	}
}

func TestStoreLookupMisses(t *testing.T) {
	s := NewStore()
	hi, lo := testRoutinePair()
	if err := s.Preload(lo); err != nil {
		t.Fatal(err)
	}
	// 100 is below the highest preloaded ID but was never preloaded; 0xFFFF
	// lies past the end of the store.
	for _, id := range []RoutineID{hi.ID, 0, 0xFFFF} {
		if r, ok := s.Get(id); ok || r != nil {
			t.Errorf("Get(%d) = (%v, %v), want (nil, false)", id, r, ok)
		}
	}
	if err := s.Preload(&Routine{ID: lo.ID, Name: "again", Prog: lo.Prog}); err == nil ||
		err.Error() != `core: duplicate routine id 101 ("again")` {
		t.Errorf("duplicate preload error = %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len() = %d after one preload and one rejected duplicate, want 1", s.Len())
	}
	defer func() {
		if got := recover(); got != "core: routine 100 not preloaded" {
			t.Errorf("MustGet(100) panic = %v", got)
		}
	}()
	s.MustGet(hi.ID)
}

func TestLibraryLenCountsRoutines(t *testing.T) {
	s := BuildLibrary()
	n := 0
	for id := 0; id <= 0xFFFF; id++ {
		if r, ok := s.Get(RoutineID(id)); ok {
			if r.ID != RoutineID(id) {
				t.Errorf("Get(%d) returned routine %d", id, r.ID)
			}
			n++
		}
	}
	if s.Len() != n {
		t.Errorf("Len() = %d, want the %d routines BuildLibrary preloads", s.Len(), n)
	}
}

// TestLibraryPriorities pins the routine priorities the SM's trigger
// retry pass assumes from a queued trigger's kind alone: compression
// routines are low priority, decompression routines and the ECC check
// high.
func TestLibraryPriorities(t *testing.T) {
	s := BuildLibrary()
	want := func(id RoutineID, pri Priority) {
		t.Helper()
		if r := s.MustGet(id); r.Priority != pri {
			t.Errorf("routine %s (%#x) has priority %d, want %d", r.Name, id, r.Priority, pri)
		}
	}
	want(RtBDICompSpecial, PriLow)
	for _, enc := range BDICompTestOrder {
		want(RtBDICompTest+RoutineID(enc), PriLow)
	}
	want(RtFPCComp, PriLow)
	want(RtCPackComp, PriLow)
	for enc := compress.BDIZeros; enc < compress.BDINumEncodings; enc++ {
		id, err := DecompRoutineID(compress.Compressed{Alg: compress.AlgBDI, Enc: uint8(enc)})
		if err != nil {
			t.Fatal(err)
		}
		want(id, PriHigh)
	}
	for _, alg := range []compress.AlgID{compress.AlgFPC, compress.AlgCPack} {
		id, err := DecompRoutineID(compress.Compressed{Alg: alg})
		if err != nil {
			t.Fatal(err)
		}
		want(id, PriHigh)
	}
	want(RtECCCheck, PriHigh)
}

func TestControllerTriggerLimits(t *testing.T) {
	s := NewStore()
	hi, lo := testRoutinePair()
	s.Preload(hi)
	s.Preload(lo)
	c := NewController(s, 4)

	// One high-priority assist warp per parent warp.
	e1 := c.Trigger(hi, 3, NewExec(hi.Prog, hi.ActiveMask), nil, nil)
	if e1 == nil {
		t.Fatal("first trigger failed")
	}
	if c.Trigger(hi, 3, NewExec(hi.Prog, hi.ActiveMask), nil, nil) != nil {
		t.Error("second high-pri trigger for same warp must be rejected")
	}
	if c.Trigger(hi, 4, NewExec(hi.Prog, hi.ActiveMask), nil, nil) == nil {
		t.Error("different warp should trigger fine")
	}
	// Low-priority partition has 2 entries.
	if c.Trigger(lo, 5, NewExec(lo.Prog, lo.ActiveMask), nil, nil) == nil {
		t.Error("low-pri slot 1 should trigger")
	}
	if c.Trigger(lo, 6, NewExec(lo.Prog, lo.ActiveMask), nil, nil) == nil {
		t.Error("low-pri slot 2 should trigger")
	}
	if c.Trigger(lo, 7, NewExec(lo.Prog, lo.ActiveMask), nil, nil) != nil {
		t.Error("low-pri partition is full (2 entries)")
	}
	// AWT full.
	if c.Trigger(hi, 8, NewExec(hi.Prog, hi.ActiveMask), nil, nil) != nil {
		t.Error("AWT is full (4 entries)")
	}
}

func TestControllerDeployRoundRobin(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	s.Preload(hi)
	c := NewController(s, 8)
	c.DeployBW = 2
	c.StagedCap = 2
	e1 := c.Trigger(hi, 0, NewExec(hi.Prog, hi.ActiveMask), nil, nil)
	e2 := c.Trigger(hi, 1, NewExec(hi.Prog, hi.ActiveMask), nil, nil)
	c.Tick() // DeployBW=2: one instr staged for each
	if e1.Staged != 1 || e2.Staged != 1 {
		t.Errorf("staged = %d/%d, want 1/1", e1.Staged, e2.Staged)
	}
	c.Tick()
	if e1.Staged != 2 || e2.Staged != 2 {
		t.Errorf("staged = %d/%d, want 2/2 (StagedCap)", e1.Staged, e2.Staged)
	}
	c.Tick() // both at cap: nothing staged
	if e1.Staged != 2 || e2.Staged != 2 {
		t.Error("staging must respect per-entry cap")
	}
}

func TestControllerThrottlesLowPriority(t *testing.T) {
	s := NewStore()
	hi, lo := testRoutinePair()
	s.Preload(hi)
	s.Preload(lo)
	c := NewController(s, 8)
	eh := c.Trigger(hi, 0, NewExec(hi.Prog, hi.ActiveMask), nil, nil)
	el := c.Trigger(lo, 1, NewExec(lo.Prog, lo.ActiveMask), nil, nil)
	// Saturate the utilization window.
	for i := 0; i < 64; i++ {
		c.NoteIssueSlot(true)
	}
	if !c.LowPriorityThrottled() {
		t.Fatal("fully busy pipeline should throttle low priority")
	}
	c.Tick()
	if el.Staged != 0 {
		t.Error("low-pri must not deploy under throttle")
	}
	if eh.Staged == 0 {
		t.Error("high-pri must still deploy under throttle")
	}
	// Now idle the pipeline.
	for i := 0; i < 64; i++ {
		c.NoteIssueSlot(false)
	}
	c.Tick()
	if el.Staged == 0 {
		t.Error("low-pri should deploy once idle")
	}
}

func TestControllerRetireAndComplete(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	s.Preload(hi)
	c := NewController(s, 8)
	completed := false
	e := c.Trigger(hi, 2, NewExec(hi.Prog, hi.ActiveMask), "ctx", func(x *Entry) {
		completed = true
		if x.User != "ctx" {
			t.Error("user context lost")
		}
	})
	// Drive to completion: stage, issue, execute.
	for !e.Exec.Done {
		e.Exec.Step()
	}
	c.Retire(e)
	if !completed {
		t.Error("OnComplete must fire on retire")
	}
	if len(c.Entries()) != 0 || c.HighFor(2) != nil {
		t.Error("entry must be removed from AWT")
	}
	// A new high-pri trigger for warp 2 must now succeed.
	if c.Trigger(hi, 2, NewExec(hi.Prog, hi.ActiveMask), nil, nil) == nil {
		t.Error("slot should be free after retire")
	}
}

func TestControllerKillFlushes(t *testing.T) {
	s := NewStore()
	hi, _ := testRoutinePair()
	s.Preload(hi)
	c := NewController(s, 8)
	fired := false
	e := c.Trigger(hi, 0, NewExec(hi.Prog, hi.ActiveMask), nil, func(*Entry) { fired = true })
	c.Tick()
	c.Kill(e)
	if fired {
		t.Error("killed warps must not fire OnComplete")
	}
	if e.Staged != 0 || !e.Killed {
		t.Error("kill must flush AWB staging")
	}
	if len(c.Entries()) != 0 {
		t.Error("kill must remove the AWT entry")
	}
	if c.KilledCount != 1 {
		t.Error("kill accounting wrong")
	}
	c.Kill(e) // idempotent
	if c.KilledCount != 1 {
		t.Error("double kill must not double count")
	}
}

func TestEntryDone(t *testing.T) {
	hi, _ := testRoutinePair()
	e := &Entry{Routine: hi, Exec: NewExec(hi.Prog, hi.ActiveMask)}
	if e.Done() {
		t.Error("fresh entry is not done")
	}
	for !e.Exec.Done {
		e.Exec.Step()
	}
	e.Outstanding = 1
	if e.Done() {
		t.Error("outstanding writebacks keep the entry live")
	}
	e.Outstanding = 0
	if !e.Done() {
		t.Error("entry should be done")
	}
}

func TestUtilizationWindow(t *testing.T) {
	c := NewController(NewStore(), 1)
	for i := 0; i < 32; i++ {
		c.NoteIssueSlot(true)
		c.NoteIssueSlot(false)
	}
	if u := c.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}
