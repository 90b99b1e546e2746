package gpu

import (
	"testing"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/core"
)

// TestRetryPassSkipsOnlyBlockedClass drives one trigger retry pass with
// the low-priority AWB partition full. The first queued compression fails
// and blocks its class for the pass, yet a compression whose line was
// released raw behind it is still dropped, a decompression behind it
// still lands, and the survivors keep their order.
func TestRetryPassSkipsOnlyBlockedClass(t *testing.T) {
	sim := newSim(t, config.DesignCABABDI, vecScaleKernel(), 1, 32, [4]uint64{inBase, outBase})
	sm := sim.sms[0]
	comp := sim.AWS.MustGet(core.RtBDICompSpecial)
	for w := 0; w < sm.awc.LowCap; w++ {
		if sm.awc.Trigger(comp, w, sm.newAssistExec(comp), nil, nil) == nil {
			t.Fatalf("low-priority trigger %d rejected", w)
		}
	}
	if sm.awc.CanTrigger(core.PriLow, 0) {
		t.Fatal("low-priority partition should be full")
	}

	chain := []core.RoutineID{core.RtBDICompSpecial}
	first := &storeEntry{chain: chain}
	second := &storeEntry{chain: chain}
	var zeros [compress.LineSize]byte
	st, err := compress.Compress(compress.AlgBDI, zeros[:])
	if err != nil {
		t.Fatal(err)
	}
	sm.decompRetry = []pendingTrigger{
		{kind: pendCompress, se: first},
		{kind: pendCompress, se: &storeEntry{chain: chain, released: true}},
		{kind: pendDecomp, ln: 0x1000, st: st, warp: 0},
		{kind: pendCompress, se: second},
		{kind: pendCompress, se: &storeEntry{chain: chain, released: true}},
	}
	triggered := sm.awc.Triggered

	sm.retryTriggers()

	if len(sm.decompRetry) != 2 || sm.decompRetry[0].se != first || sm.decompRetry[1].se != second {
		t.Fatalf("queue after pass = %+v, want the two unreleased compressions in order", sm.decompRetry)
	}
	if sm.awc.HighFor(0) == nil || sm.awc.Triggered != triggered+1 {
		t.Errorf("decompression behind the blocked low-priority class did not land (triggered %d -> %d)",
			triggered, sm.awc.Triggered)
	}
}
