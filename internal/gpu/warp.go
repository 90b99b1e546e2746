package gpu

import (
	"math/bits"

	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/isa"
)

// regMask aliases the framework's scoreboard bitset (core.RegMask), which
// is shared with AWT entries so both warp kinds scoreboard without
// allocation.
type regMask = core.RegMask

// ctaCtx is one resident thread block on an SM.
type ctaCtx struct {
	id        int // CTA index within the grid
	shared    []byte
	warps     []*warpCtx
	liveWarps int
	atBarrier int
}

// retirable reports whether the CTA can retire: every warp has finished
// and drained its in-flight instructions, loads and replays.
func (c *ctaCtx) retirable() bool {
	if c.liveWarps > 0 {
		return false
	}
	for _, w := range c.warps {
		if w.inFlight > 0 || w.pendingLoads > 0 || w.replay != nil {
			return false
		}
	}
	return true
}

// warpCtx is one hardware warp slot.
type warpCtx struct {
	id   int // slot index within the SM
	cta  *ctaCtx
	exec *core.Exec
	sb   regMask

	valid bool
	// inFlight counts issued-but-not-retired instructions (for drain).
	inFlight int
	// pendingLoads counts outstanding global loads (the scoreboard blocks
	// dependents; independent later loads may issue, bounded by the MSHR).
	pendingLoads int
	// replay is the load whose overflow lines are still waiting for MSHR
	// slots; a warp has at most one.
	replay *loadReq
	// lastIssueCycle orders warps for the GTO "oldest" criterion.
	lastIssueCycle uint64
	// idle caches a nil CurrentSop verdict: the warp is done or parked at
	// a barrier, and stays that way until a barrier release (handleControl
	// or noteWarpDone) or a fresh CTA placement clears the flag.
	idle bool
	// depStalled caches a scoreboard-conflict verdict: the warp's current
	// instruction conflicts with its own in-flight destinations, so it
	// cannot issue until some of its scoreboard bits clear. The verdict is
	// monotone in between — a stalled warp cannot issue (its current
	// instruction and PC are pinned) and its scoreboard only gains bits —
	// so the flag stays valid across cycles and is invalidated exactly at
	// the three sites that clear bits from w.sb (wbPop, loadLineDone, the
	// zero-lane load cancel in issueMemory). Structural (port) failures
	// are never cached: port state mutates between slots.
	depStalled bool
	// memoPending marks a warp whose scoreboard holds the destinations of
	// an in-flight memoization probe: its dependence stalls are the assist
	// replay's latency, which the attribution charges as CauseMemoWait
	// instead of CauseScoreboard. Set with the probe trigger, cleared by
	// finishMemoProbe, serialized with the SM's use-case section.
	memoPending bool
}

// loadReq tracks one warp's in-flight global load (possibly several cache
// lines after coalescing).
type loadReq struct {
	warp         *warpCtx
	sop          *isa.Superop
	linesPending int
	issued       uint64
	// todo holds coalesced lines that could not allocate MSHR entries at
	// issue and await replay.
	todo []uint64
}

// popcount32 counts set bits in a lane mask.
func popcount32(m uint32) int { return bits.OnesCount32(m) }
