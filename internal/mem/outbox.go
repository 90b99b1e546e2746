package mem

import (
	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/timing"
)

// Outbox collects one SM's outbound shared-state operations during the
// parallel phase (phase A) of the two-phase tick: crossbar traffic
// (ReadLine/WriteLine), delayed-event scheduling, and compression-metadata
// (Domain) updates. The operations are recorded in program order and
// replayed verbatim by System.CommitOutbox on the main goroutine at the
// cycle barrier, so phase-A workers never touch the crossbar, the event
// queue, the Domain map, or any other shared structure.
//
// Domain writes ride in the same ordered stream as crossbar ops because
// WriteLine's flit count reads the line's compression state at send time:
// a staged SetCompressed must land before the staged WriteLine that
// follows it, in the order the SM issued them.
// StagedState gives the owning SM read-through to its own not-yet-
// committed Domain writes within the tick.
type Outbox struct {
	// SM is the owning SM's index, used as the crossbar port at commit.
	SM int

	ops []stagedOp
	dom map[uint64]compress.Compressed // staged Domain state; Alg==AlgNone entry = staged raw
}

type opKind uint8

const (
	opReadLine opKind = iota
	opReadLineRaw
	opWriteLine
	opEvent
	opSetCompressed
	opSetRaw
)

type stagedOp struct {
	kind opKind
	line uint64
	user any
	at   float64
	act  timing.Action
	st   compress.Compressed
}

// Empty reports whether nothing is staged.
func (ob *Outbox) Empty() bool { return len(ob.ops) == 0 }

// ReadLine stages a line request on behalf of the owning SM.
func (ob *Outbox) ReadLine(line uint64, user any) {
	ob.ops = append(ob.ops, stagedOp{kind: opReadLine, line: line, user: user})
}

// ReadLineRaw stages a fault-recovery refetch of the uncompressed line.
func (ob *Outbox) ReadLineRaw(line uint64, user any) {
	ob.ops = append(ob.ops, stagedOp{kind: opReadLineRaw, line: line, user: user})
}

// WriteLine stages a line writeback toward L2.
func (ob *Outbox) WriteLine(line uint64) {
	ob.ops = append(ob.ops, stagedOp{kind: opWriteLine, line: line})
}

// Event stages a timed action (Queue.Push) for the commit phase. at is an
// absolute time; times at or before the commit cycle fire on the next
// queue run, matching Queue.Push's clamping on the direct path.
func (ob *Outbox) Event(at float64, act timing.Action) {
	ob.ops = append(ob.ops, stagedOp{kind: opEvent, at: at, act: act})
}

// SetCompressed stages a Domain compression-state update.
func (ob *Outbox) SetCompressed(line uint64, st compress.Compressed) {
	ob.ops = append(ob.ops, stagedOp{kind: opSetCompressed, line: line, st: st})
	ob.stageDom(line, st)
}

// SetRaw stages a Domain raw-state update.
func (ob *Outbox) SetRaw(line uint64) {
	ob.ops = append(ob.ops, stagedOp{kind: opSetRaw, line: line})
	ob.stageDom(line, compress.Compressed{Alg: compress.AlgNone})
}

func (ob *Outbox) stageDom(line uint64, st compress.Compressed) {
	if ob.dom == nil {
		ob.dom = make(map[uint64]compress.Compressed)
	}
	ob.dom[line] = st
}

// StagedState returns the staged Domain state for line, if this outbox
// holds one. The owning SM consults it before the committed Domain so its
// own same-cycle metadata writes are visible to its later reads.
func (ob *Outbox) StagedState(line uint64) (compress.Compressed, bool) {
	if len(ob.dom) == 0 {
		return compress.Compressed{}, false
	}
	st, ok := ob.dom[line]
	return st, ok
}

// CommitOutbox replays one SM's staged operations, in the order the SM
// issued them, into the live crossbar/Domain/event queue. The simulator
// calls it at the cycle barrier in ascending SM-index order; that fixed
// order is the crossbar's port-arbitration order. Because every SM's
// operations land only here, no SM sees another's same-cycle effects,
// and the result does not depend on how phase A was scheduled.
func (sys *System) CommitOutbox(ob *Outbox) {
	for i := range ob.ops {
		op := &ob.ops[i]
		switch op.kind {
		case opReadLine:
			sys.ReadLine(ob.SM, op.line, op.user)
		case opReadLineRaw:
			sys.ReadLineRaw(ob.SM, op.line, op.user)
		case opWriteLine:
			sys.WriteLine(ob.SM, op.line)
		case opEvent:
			sys.Q.Push(op.at, op.act)
		case opSetCompressed:
			sys.Dom.SetCompressed(op.line, op.st)
		case opSetRaw:
			sys.Dom.SetRaw(op.line)
		}
		*op = stagedOp{} // drop user/action references for the collector
	}
	ob.ops = ob.ops[:0]
	if len(ob.dom) > 0 {
		clear(ob.dom)
	}
}
