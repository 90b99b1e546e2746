package gpu

import (
	"testing"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/timing"
)

// ticketKernel: every thread takes a ticket from the shared counter at
// %p0 with an atomic add, records it at out[gtid] (%p1), then loads one
// shared line (%p2), so the CTAs resident on an SM drain on the same
// fill and retire in the same tick.
func ticketKernel() *isa.Program {
	return isa.MustAssemble("ticket", `
  movi r0, 1
  mov r1, %p0
  atom.add.u32 r2, [r1], r0
  shl r3, %gtid, 2
  add r3, r3, %p1
  st.global.u32 [r3], r2
  mov r5, %p2
  ld.global.u32 r4, [r5]
  exit`)
}

const (
	ticketAddr = 0x3000_0000
	drainLine  = 0x3000_1000
)

// runTickets runs ticketKernel on a one-warp-per-CTA grid and returns
// each thread's ticket and the final counter.
func runTickets(t *testing.T, sms, ctasPerSM, ctas int) ([]uint64, uint64) {
	t.Helper()
	cfg := config.TestConfig()
	cfg.NumSMs = sms
	cfg.MaxCTAsPerSM = ctasPerSM
	k := &Kernel{Prog: ticketKernel(), GridCTAs: ctas, CTAThreads: cfg.WarpSize,
		Params: [4]uint64{ticketAddr, outBase, drainLine}}
	sim, err := New(&cfg, config.DesignBase, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, ctas*cfg.WarpSize)
	for i := range got {
		got[i] = sim.Mem.ReadU(outBase+uint64(i*4), 4)
	}
	return got, sim.Mem.ReadU(ticketAddr, 4)
}

// TestStagingCrossSMVisibility pins the committed semantics of the
// two-phase tick's write staging: a store or atomic becomes visible to
// other SMs at the end of the cycle it issued in, not during it. Two SMs
// run one identical warp each, so their atomics on one counter issue in
// the same cycle. Each SM must see the committed value plus only its own
// lanes' deltas (tickets 0..31 on both), and both SMs' deltas must land
// (counter 64). Applying SM 0's writes to memory mid-tick, as a serial
// loop without the write buffer would, hands SM 1 tickets 32..63.
func TestStagingCrossSMVisibility(t *testing.T) {
	got, counter := runTickets(t, 2, 1, 2)
	for gtid, v := range got {
		if want := uint64(gtid % 32); v != want {
			t.Errorf("thread %d (SM %d) took ticket %d, want %d", gtid, gtid/32, v, want)
		}
	}
	if counter != 64 {
		t.Errorf("counter = %d, want 64 (a same-cycle atomic delta was lost)", counter)
	}
}

// TestDispatchAtCycleBarrier pins that CTA dispatch runs at the cycle
// barrier, after the tick's retirement sweep, not mid-tick. One SM holds
// two one-warp CTAs that drain on the same fill and retire in one tick.
// Deferred dispatch then places CTAs 2 and 3 into the freed warp slots
// in ascending order, so every CTA takes its tickets in launch order
// (thread gtid takes ticket gtid). Dispatching inside the sweep, which
// retires CTA 1 before CTA 0, would put CTA 2 in slot 1 and let CTA 3
// take its tickets first.
func TestDispatchAtCycleBarrier(t *testing.T) {
	got, counter := runTickets(t, 1, 2, 6)
	for gtid, v := range got {
		if v != uint64(gtid) {
			t.Errorf("thread %d (CTA %d) took ticket %d, want %d", gtid, gtid/32, v, gtid)
		}
	}
	if counter != uint64(len(got)) {
		t.Errorf("counter = %d, want %d", counter, len(got))
	}
}

// TestOutboxDefersSharedEffects pins the outbox half of the staging: the
// compression-metadata writes and event pushes an SM makes during its
// tick reach the shared Domain and event queue only when the simulator
// commits that SM at the cycle barrier. Until then the SM reads its own
// staged metadata and every other SM reads the committed state.
func TestOutboxDefersSharedEffects(t *testing.T) {
	cfg := config.TestConfig()
	k := &Kernel{Prog: ticketKernel(), GridCTAs: 1, CTAThreads: cfg.WarpSize,
		Params: [4]uint64{ticketAddr, outBase, drainLine}}
	sim, err := New(&cfg, config.DesignCABABDI, k)
	if err != nil {
		t.Fatal(err)
	}
	st, err := compress.Compress(compress.AlgBDI, make([]byte, compress.LineSize))
	if err != nil || !st.IsCompressed() {
		t.Fatalf("zero line did not compress: %v", err)
	}
	sm0, sm1 := sim.sms[0], sim.sms[1]
	events := sim.Q.Len()

	sm0.inTick = true
	sm0.domSetCompressed(drainLine, st)
	sm0.qAt(0, timing.Nop{})
	sm0.inTick = false

	if !sm0.domState(drainLine).IsCompressed() {
		t.Error("SM 0 does not see its own staged metadata write")
	}
	if sm1.domState(drainLine).IsCompressed() || sim.Dom.State(drainLine).IsCompressed() {
		t.Error("SM 0's metadata write is visible before the cycle barrier")
	}
	if sim.Q.Len() != events {
		t.Error("SM 0's event reached the queue before the cycle barrier")
	}
	sim.commit(sm0)
	if !sm1.domState(drainLine).IsCompressed() {
		t.Error("SM 0's metadata write is not visible after commit")
	}
	if sim.Q.Len() != events+1 {
		t.Errorf("queue holds %d events after commit, want %d", sim.Q.Len(), events+1)
	}
}
