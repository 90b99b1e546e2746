package caba_test

import (
	"fmt"
	"runtime"
	"testing"

	caba "github.com/caba-sim/caba"
)

// The engine-strategy grid: every execution strategy must be invisible in
// the results. Each strategy row runs every pair below and must match the
// reference engine (pre-decoded, serial, fast-forward on) exactly, not
// approximately, on every Result field diffResults compares.

// strategyPairs is every app×design pair the grid runs.
var strategyPairs = []struct {
	app    string
	design caba.Design
}{
	{"sssp", caba.Base},   // memory-bound, no compression machinery
	{"PVC", caba.CABABDI}, // assist-warp compression + decompression, cross-SM atomics
	{"bfs", caba.HWBDI},   // hardware (de)compression latencies
	{"TRA", caba.CABABDI}, // second CABA-BDI app, different access pattern
	{"KM", caba.IdealBDI}, // zero-latency decompression design
}

// strategies is the grid's strategy table. group names the test that
// runs the row. The worker rows keep fast-forward on, so they also pin
// workers combined with fast-forward; the FastForward=false row ties the
// reference to per-cycle ticking.
var strategies = []struct {
	group string
	name  string
	set   func(*caba.Config)
}{
	{"FastForward", "FastForward=false", func(c *caba.Config) { c.FastForward = false }},
	{"Interpreter", "Interpreter=true", func(c *caba.Config) { c.Interpreter = true }},
	{"Parallel", "SMWorkers=4", func(c *caba.Config) { c.SMWorkers = 4 }},
	{"Parallel", "SMWorkers=GOMAXPROCS", func(c *caba.Config) { c.SMWorkers = runtime.GOMAXPROCS(0) }},
}

// TestFastForwardGoldenEquivalence: cycle-skipping is invisible.
func TestFastForwardGoldenEquivalence(t *testing.T) { strategyGrid(t, "FastForward") }

// TestInterpreterGoldenEquivalence: the pre-decoded engine matches the
// reference interpreter over the whole machine — schedulers, assist
// warps, the memory hierarchy and fast-forward all riding on StepRef.
// FuzzPredecode pins the same invariant per instruction.
func TestInterpreterGoldenEquivalence(t *testing.T) { strategyGrid(t, "Interpreter") }

// TestParallelGoldenEquivalence: SMWorkers is invisible.
func TestParallelGoldenEquivalence(t *testing.T) { strategyGrid(t, "Parallel") }

// strategyGrid runs every pair under the reference engine and under each
// strategy row of group, and reports every field that differs.
func strategyGrid(t *testing.T, group string) {
	for _, p := range strategyPairs {
		p := p
		t.Run(fmt.Sprintf("%s_%s", p.app, p.design.Name), func(t *testing.T) {
			t.Parallel()
			run := func(name string, set func(*caba.Config)) (*caba.Result, bool) {
				t.Helper()
				cfg := caba.QuickConfig()
				cfg.Scale = 0.03
				cfg.FastForward = true
				if set != nil {
					set(&cfg)
				}
				r, err := caba.Run(cfg, p.design, p.app, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return r, cfg.FastForward
			}
			ref, _ := run("reference", nil)
			for _, s := range strategies {
				if s.group != group {
					continue
				}
				got, ff := run(s.name, s.set)
				for _, d := range diffResults(ref, got, ff) {
					t.Errorf("%s: %s", s.name, d)
				}
			}
		})
	}
}

// diffResults is the grid's one Result comparator: the cycle count, IPC,
// bandwidth utilization, compression ratio, energy, the
// decompression-mismatch counter, every raw counter in Metrics (the
// Figure-1 stall breakdown included) and, when both runs fast-forwarded,
// the fast-forward skip counts.
func diffResults(want, got *caba.Result, ff bool) []string {
	var out []string
	check := func(name string, w, g any) {
		if w != g {
			out = append(out, fmt.Sprintf("%s diverges: reference %v, got %v", name, w, g))
		}
	}
	check("cycles", want.Cycles, got.Cycles)
	check("IPC", want.IPC, got.IPC)
	check("bandwidth utilization", want.BandwidthUtil, got.BandwidthUtil)
	check("compression ratio", want.CompressionRatio, got.CompressionRatio)
	check("energy", want.EnergyNJ, got.EnergyNJ)
	check("DRAM energy", want.DRAMEnergyNJ, got.DRAMEnergyNJ)
	check("decompression mismatches", want.DecompMismatches, got.DecompMismatches)
	if ff {
		check("fast-forward skips", want.FFSkips, got.FFSkips)
		check("fast-forward cycles", want.FFCycles, got.FFCycles)
	}
	for _, d := range want.Stats.Diff(got.Stats) {
		out = append(out, "stats diverge: "+d)
	}
	return out
}
