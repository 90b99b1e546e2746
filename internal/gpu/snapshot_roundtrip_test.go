package gpu_test

import (
	"bytes"
	"testing"

	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/faults"
	"github.com/caba-sim/caba/internal/gpu"
	"github.com/caba-sim/caba/internal/workloads"
)

// TestSnapshotRoundTripBytes: save → load into a fresh simulator → save
// reproduces the blob byte for byte, at checkpoints near 25%, 50% and
// 90% of the run. It pins that interning order (the table index each
// pending-work object gets on first reference) is a pure function of
// the simulated state — no encoder may iterate a map — and that every
// field the encoder writes survives the decoder. The cases cover the
// decompression/compression assist warps (CABA-BDI), the prefetch and
// memoization use-case state on top of them (CABA-Combined on the
// SFU-heavy TBL, whose checkpoints hold memo-probe contexts) and the
// fault-recovery contexts (CABA-BDI with faults on).
func TestSnapshotRoundTripBytes(t *testing.T) {
	for _, c := range []struct {
		name   string
		app    string
		design config.Design
		faults bool
	}{
		{"CABA-BDI/PVC", "PVC", config.DesignCABABDI, false},
		{"CABA-Combined/TBL", "TBL", config.DesignCABACombined, false},
		{"CABA-BDI-faults/PVC", "PVC", config.DesignCABABDI, true},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := config.TestConfig()
			cfg.Scale = 0.03
			if c.faults {
				cfg.Faults = faults.Config{
					Seed:                3,
					BitFlipRate:         0.05,
					MDCorruptRate:       0.02,
					ResponseDelayRate:   0.05,
					ResponseDelayCycles: 200,
				}
			}
			inst, err := workloads.ByName(c.app).Instantiate(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			build := func(prepare bool) *gpu.Simulator {
				sim, err := gpu.New(&cfg, c.design, inst.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				if prepare {
					inst.Prepare(sim, 1)
				}
				return sim
			}

			straight := build(true)
			if err := straight.Run(inst.MaxCycles()); err != nil {
				t.Fatal(err)
			}
			total := straight.Cycles()

			var blobs [][]byte
			var cycles []uint64
			ck := build(true)
			ck.Cfg.CheckpointEvery = total / 20
			ck.OnCheckpoint = func(cycle uint64, blob []byte) error {
				blobs = append(blobs, append([]byte(nil), blob...))
				cycles = append(cycles, cycle)
				return nil
			}
			if err := ck.Run(inst.MaxCycles()); err != nil {
				t.Fatal(err)
			}
			if len(blobs) == 0 {
				t.Fatal("no checkpoints taken")
			}
			for _, pct := range []uint64{25, 50, 90} {
				i := 0
				for i < len(blobs)-1 && cycles[i] < total*pct/100 {
					i++
				}
				fresh := build(false)
				if err := fresh.LoadState(blobs[i]); err != nil {
					t.Fatalf("load at %d%% (cycle %d): %v", pct, cycles[i], err)
				}
				again, err := fresh.SaveState()
				if err != nil {
					t.Fatalf("re-save at %d%% (cycle %d): %v", pct, cycles[i], err)
				}
				if !bytes.Equal(blobs[i], again) {
					t.Fatalf("at %d%% (cycle %d): re-saved blob differs (%d vs %d bytes)",
						pct, cycles[i], len(again), len(blobs[i]))
				}
			}
		})
	}
}
