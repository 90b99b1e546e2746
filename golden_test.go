package caba_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	caba "github.com/caba-sim/caba"
)

// goldenPath holds the recorded statistics of a small reference sweep.
// Regenerate with:
//
//	GOLDEN_UPDATE=1 go test -run TestZeroFaultGolden .
const goldenPath = "testdata/golden_zero_fault.json"

// goldenRuns is the reference grid: one memory-bound app under the
// baseline and the CABA design, at the same scale/seed the equivalence
// tests use, plus bh under CABA-BDI, whose full AWT queues millions of
// decompression and compression trigger retries (PVC queues few
// decompression retries and no compression retries).
var goldenRuns = []struct {
	App    string
	Design caba.Design
}{
	{"PVC", caba.Base},
	{"PVC", caba.CABABDI},
	{"bh", caba.CABABDI},
}

func goldenConfig() caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	cfg.SMWorkers = 1
	return cfg
}

// TestZeroFaultGolden asserts that a run with no fault injection remains
// bit-identical to the recorded pre-fault-framework statistics: every
// counter of stats.Sim, including the energy model outputs, must match
// the golden file exactly. scripts/bench.sh runs this as a preflight.
func TestZeroFaultGolden(t *testing.T) {
	got := map[string]*caba.Metrics{}
	for _, g := range goldenRuns {
		res, err := caba.Run(goldenConfig(), g.Design, g.App, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", g.App, g.Design.Name, err)
		}
		got[g.App+"/"+g.Design.Name] = res.Stats
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	want := map[string]*caba.Metrics{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from current run set", key)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			for _, d := range w.Diff(g) {
				t.Errorf("%s: golden mismatch: %s", key, d)
			}
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file; regenerate with GOLDEN_UPDATE=1", key)
		}
	}
}

// ffPins records the fast-forward engine's clock jumps (Result.FFSkips)
// and the cycles they covered (Result.FFCycles) for every goldenRuns row
// plus the two use-case showcase cells. The zero-fault golden holds Stats
// only, and a changed quiescence verdict that stays sound leaves Stats
// untouched; these counters are what moves.
var ffPins = []struct {
	App           string
	Design        caba.Design
	Skips, Cycles uint64
}{
	{"PVC", caba.Base, 0, 0},
	{"PVC", caba.CABABDI, 0, 0},
	{"bh", caba.CABABDI, 6, 58},
	{"STRD", caba.CABAPrefetch, 142, 447},
	{"TBL", caba.CABAMemo, 34, 231},
}

// TestFastForwardCounterPins asserts ffPins at the golden configuration.
func TestFastForwardCounterPins(t *testing.T) {
	if len(ffPins) != len(goldenRuns)+2 {
		t.Fatalf("ffPins has %d rows, want one per goldenRuns row plus STRD and TBL", len(ffPins))
	}
	for i, g := range goldenRuns {
		if p := ffPins[i]; p.App != g.App || p.Design.Name != g.Design.Name {
			t.Fatalf("ffPins[%d] is %s/%s, want goldenRuns row %s/%s", i, p.App, p.Design.Name, g.App, g.Design.Name)
		}
	}
	for _, p := range ffPins {
		res, err := caba.Run(goldenConfig(), p.Design, p.App, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.App, p.Design.Name, err)
		}
		if res.FFSkips != p.Skips || res.FFCycles != p.Cycles {
			t.Errorf("%s/%s: fast-forward FFSkips/FFCycles = %d/%d, pinned %d/%d",
				p.App, p.Design.Name, res.FFSkips, res.FFCycles, p.Skips, p.Cycles)
		}
	}
}
