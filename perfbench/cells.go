package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/energy"
	"github.com/caba-sim/caba/internal/gpu"
	"github.com/caba-sim/caba/internal/workloads"
)

// cellTimeout bounds one simulation; a cell that exceeds it counts as
// failed. The slowest cell of any workload takes a few seconds.
const cellTimeout = 60 * time.Second

// outcome is what a run reports for one cell.
type outcome struct {
	Key    string `json:"key"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
	// Instrs counts simulated parent plus assist warp instructions.
	Instrs uint64 `json:"instrs"`
}

// digest fingerprints a cell's full simulated result: the cycle count and
// every Stats counter, through the Result's JSON form (the same form the
// sweep's checkpoint file stores, so both paths digest alike).
func digest(r *caba.Result) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// outcomeOf builds a cell's outcome from its result or error.
func outcomeOf(key string, r *caba.Result, err error) outcome {
	o := outcome{Key: key}
	if err == nil {
		o.Digest, err = digest(r)
		o.Instrs = r.Stats.WarpInstrs + r.Stats.AssistInstrs
	}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// runCell simulates one cell through the library's entry point.
func runCell(ctx context.Context, cfg caba.Config, c cell, seed int64) (*caba.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, cellTimeout)
	defer cancel()
	return caba.RunContext(ctx, cfg, c.Design, c.App, seed)
}

// prepared is a cell built and filled but not yet run.
type prepared struct {
	sim        *gpu.Simulator
	inst       *workloads.Instance
	design     caba.Design
	inputRatio float64
}

// prepareCell replays the set-up steps of caba.RunContext: the static
// profiling gate (compression assist warps stay off for apps that are not
// memory-bound), workloads.Instantiate, gpu.New and Instance.Prepare.
// Each step runs inside its own span when tr is non-nil.
func prepareCell(tr *tracer, root int, cfg *caba.Config, c cell, seed int64) (*prepared, error) {
	step := func(name string, fn func()) {
		id := tr.begin(name, c.key(), root)
		fn()
		tr.end(id)
	}
	app := workloads.ByName(c.App)
	if app == nil {
		return nil, fmt.Errorf("unknown application %q", c.App)
	}
	p := &prepared{design: c.Design}
	if p.design.Decomp == config.DecompCABA && !app.MemoryBound {
		name, uc := p.design.Name, p.design.UseCase
		p.design = config.DesignBase
		p.design.Name, p.design.UseCase = name, uc
	}
	var err error
	step("workloads.instantiate", func() { p.inst, err = app.Instantiate(cfg) })
	if err != nil {
		return nil, err
	}
	step("gpu.new", func() { p.sim, err = gpu.New(cfg, p.design, p.inst.Kernel) })
	if err != nil {
		return nil, err
	}
	step("workloads.prepare", func() { p.inputRatio = p.inst.Prepare(p.sim, seed) })
	return p, nil
}

// replayCell is caba.RunContext rebuilt from the layers' public functions,
// with a span around each call: cell, workloads.instantiate, gpu.new,
// workloads.prepare, gpu.run and energy.apply. It must reproduce the
// untraced result bit for bit; the digest check holds it to that.
func replayCell(tr *tracer, cfg caba.Config, c cell, seed int64, input func(*prepared)) (res *caba.Result, events uint64, err error) {
	root := tr.begin("cell", c.key(), 0)
	defer tr.end(root)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s: internal panic: %v", c.key(), r)
		}
	}()
	p, err := prepareCell(tr, root, &cfg, c, seed)
	if err != nil {
		return nil, 0, err
	}
	if input != nil {
		input(p)
	}
	id := tr.begin("gpu.run", c.key(), root)
	err = p.sim.Run(p.inst.MaxCycles())
	tr.end(id)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", c.key(), err)
	}
	sim := p.sim
	id = tr.begin("energy.apply", c.key(), root)
	m := energy.DefaultModel()
	energy.Apply(&m, &cfg, p.design, sim.S)
	tr.end(id)
	res = &caba.Result{
		App:              c.App,
		Design:           p.design.Name,
		Cycles:           sim.Cycles(),
		IPC:              sim.S.IPC(),
		BandwidthUtil:    sim.S.BWUtilization(),
		CompressionRatio: sim.S.Ratio.Value(),
		EnergyNJ:         sim.S.TotalEnergy(),
		DRAMEnergyNJ:     sim.S.DRAMEnergy(),
		AvgPowerW:        sim.S.AvgPowerW(cfg.CoreClockMHz),
		MDHitRate:        sim.S.MDHitRate(),
		InputRatio:       p.inputRatio,
		DecompMismatches: sim.DecompMismatches(),
		FaultsInjected:   sim.S.FaultsInjected,
		FaultsDetected:   sim.S.FaultsDetected,
		FaultsRecovered:  sim.S.FaultsRecovered,
		Occupancy:        sim.Occupancy(),
		Stats:            sim.S,
	}
	res.FFSkips, res.FFCycles = sim.FastForwardStats()
	_, events, _ = sim.Q.Snapshot()
	return res, events, nil
}
