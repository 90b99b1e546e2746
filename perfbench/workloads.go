package main

import (
	"fmt"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/experiments"
)

// cell is one (application, design) simulation of a workload.
type cell struct {
	App    string
	Design caba.Design
}

// key names the cell the way the sweep's checkpoint file does
// ("app/design"), so digests recorded from either path line up.
func (c cell) key() string { return c.App + "/" + c.Design.Name }

// workload is one set of cells the benchmark runs, with the scale they run
// at and how many of them are in flight at once.
type workload struct {
	Name  string
	Scale float64
	// Sweep workloads go through experiments.Fig7, which plans its own
	// cell-level parallelism (Parallel = nproc, one SM worker per cell).
	// The others run one cell at a time through caba.RunContext, on one
	// SM worker (see config).
	Sweep bool
	Cells []cell
}

// fig7Designs are the five designs of the Figure 7/8/9 study, in the
// sweep's own dispatch order.
var fig7Designs = []caba.Design{caba.Base, caba.HWBDIMem, caba.HWBDI, caba.CABABDI, caba.IdealBDI}

// paperCABASpeedup is the paper's CABA-BDI geomean speedup over Base
// (Figure 7), the reference for paper_gap_pct.
const paperCABASpeedup = 1.417

// allWorkloads lists the benchmark's workloads. Why each one is here is in
// README.md; in short, each stresses a different layer, and
// mem-bound-base runs the apps of assist-decomp with the assist layer off.
func allWorkloads() []workload {
	var fig7 []cell
	for _, app := range experiments.CompressSuite() {
		for _, d := range fig7Designs {
			fig7 = append(fig7, cell{app, d})
		}
	}
	each := func(d caba.Design, apps ...string) []cell {
		out := make([]cell, len(apps))
		for i, a := range apps {
			out[i] = cell{a, d}
		}
		return out
	}
	return []workload{
		{Name: "fig7-sweep", Scale: 0.1, Sweep: true, Cells: fig7},
		{Name: "assist-decomp", Scale: 0.15, Cells: each(caba.CABABDI, "bh", "mst", "PVC", "sp")},
		{Name: "mem-bound-base", Scale: 0.15, Cells: each(caba.Base, "MUM", "bh", "mst", "sp", "BFS")},
		{Name: "assist-usecase", Scale: 0.15, Cells: []cell{
			{"STRD", caba.CABAPrefetch},
			{"TBL", caba.CABAMemo},
			{"PVC", caba.CABACombined},
			{"RAY", caba.CABACombined},
		}},
	}
}

// workloadByName looks up one workload.
func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the simulated configuration every cell of w runs with.
// A cell runs on one SM worker, as each of the sweep's does. At the
// library default, one worker per thread, the workers meet at a barrier
// every simulated cycle, so on a shared host a cell waits whenever the
// hypervisor pauses either vCPU. Results are bit-identical for any
// worker count.
func (w workload) config() caba.Config {
	c := caba.Baseline()
	c.Scale = w.Scale
	c.SMWorkers = 1
	return c
}
