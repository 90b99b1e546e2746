package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/compress"
)

// Each measured step runs in a child process of its own (the benchmark
// re-executes itself with -child), so every sweep repetition starts with
// an empty study cache and every peak-RSS reading is one repetition's.

// repReport is what one repetition reports: a timed repetition of the
// workload, or an untraced replay of it.
type repReport struct {
	Pid    int       `json:"pid"`
	Cells  []outcome `json:"cells"`
	WallS  float64   `json:"wall_s"`
	CPUS   float64   `json:"cpu_s"`
	AllocB uint64    `json:"alloc_bytes"`
	RSSMB  float64   `json:"peak_rss_mb"`
	// Kernel is the reference kernel's time in this process (timed
	// repetitions only).
	Kernel kernelTime `json:"kernel"`
	// Speedup is the sweep's CABA-BDI geomean speedup over Base (0 when
	// the workload is not a sweep or the sweep could not compute it).
	Speedup float64 `json:"caba_speedup,omitempty"`
	// Ends are the times, in seconds from the sweep's start, at which its
	// cells landed in its checkpoint file, in that order, and Parallel
	// the cells the sweep was allowed in flight. Only a watched sweep
	// (the traced run's untraced repetition) records them.
	Ends     []float64 `json:"cell_ends_s,omitempty"`
	Parallel int       `json:"parallel,omitempty"`
}

// setupReport is what the set-up child reports: the time to build and
// prepare every cell of the workload, once per repetition.
type setupReport struct {
	TotalS []float64  `json:"total_s"`
	Kernel kernelTime `json:"kernel"`
}

// traceReport is what the traced replay reports.
type traceReport struct {
	Cells   []outcome          `json:"cells"`
	WallS   float64            `json:"wall_s"`
	Metrics map[string]float64 `json:"metrics"`
	Profile profileSplit       `json:"profile"`
	Spans   string             `json:"spans"`
}

// usage returns this process's user+sys CPU seconds and peak resident
// memory in MB (NaN if the kernel will not say, so the report fails to
// encode rather than reading 0).
func usage() (cpuS, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Maxrss is in KiB on Linux.
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6
}

// childRep runs the workload's cells once, timed, with tracing off, and
// the reference kernel between them. With watch, a sweep also records
// when each of its cells completes.
func childRep(w workload, seed int64, dir string, watch bool) (repReport, error) {
	rep := repReport{Pid: os.Getpid()}
	var cal calibration
	var ms0, ms1 runtime.MemStats
	if w.Sweep {
		cal.burst(outerBurst)
		runtime.ReadMemStats(&ms0)
		cpu0, _ := usage()
		start := time.Now()
		sw, err := runSweep(w, seed, dir, watch)
		if err != nil {
			return rep, err
		}
		rep.WallS = time.Since(start).Seconds()
		cpu1, _ := usage()
		runtime.ReadMemStats(&ms1)
		rep.CPUS = cpu1 - cpu0
		cal.burst(outerBurst)
		rep.Cells, rep.Ends, rep.Parallel = sw.cells, sw.ends, sw.parallel
		if !math.IsNaN(sw.speedup) {
			rep.Speedup = sw.speedup
		}
	} else {
		cfg := w.config()
		n := cellBurst * (len(w.Cells) + 1)
		cal.walls, cal.cpus = make([]float64, 0, n), make([]float64, 0, n)
		runtime.ReadMemStats(&ms0)
		cpu0, _ := usage()
		for _, c := range w.Cells {
			cal.burst(cellBurst)
			start := time.Now()
			r, err := runCell(context.Background(), cfg, c, seed)
			rep.WallS += time.Since(start).Seconds()
			rep.Cells = append(rep.Cells, outcomeOf(c.key(), r, err))
		}
		cal.burst(cellBurst)
		cpu1, _ := usage()
		runtime.ReadMemStats(&ms1)
		// The process's CPU time less the kernel's own: garbage
		// collection a cell left running during a burst stays the cell's.
		rep.CPUS = cpu1 - cpu0
		for _, c := range cal.cpus {
			rep.CPUS -= c
		}
	}
	_, rep.RSSMB = usage()
	rep.AllocB = ms1.TotalAlloc - ms0.TotalAlloc
	rep.Kernel = cal.mean()
	return rep, nil
}

// Set-up is timed over at least minSetupReps repetitions and at least
// setupTime, so the median of a workload whose set-up takes tens of
// milliseconds still rests on dozens of samples, and the sweep's, which
// takes most of a second, on five.
const (
	minSetupReps = 5
	setupTime    = 3 * time.Second
)

// childSetup builds and prepares every cell of the workload repeatedly
// without running any, and reports each repetition's total, with the
// reference kernel before and after them.
func childSetup(w workload, seed int64) (setupReport, error) {
	var rep setupReport
	var cal calibration
	cal.burst(outerBurst)
	cfg := w.config()
	start := time.Now()
	for i := 0; i < minSetupReps || time.Since(start) < setupTime; i++ {
		runtime.GC()
		var total time.Duration
		for _, c := range w.Cells {
			cfg := cfg
			start := time.Now()
			_, err := prepareCell(nil, 0, &cfg, c, seed)
			total += time.Since(start)
			if err != nil {
				return rep, fmt.Errorf("%s: %w", c.key(), err)
			}
		}
		rep.TotalS = append(rep.TotalS, total.Seconds())
	}
	cal.burst(outerBurst)
	rep.Kernel = cal.mean()
	return rep, nil
}

// slotPlan is the replay's split of the worker budget: for a sweep, the
// split the sweep's plan() makes for Parallel = nproc (cells in flight,
// SM workers per cell), so the replay's profile resembles the sweep's.
// The sweep's own scheduling is measured on the sweep itself (see
// sweepFigures), never on this mirror.
func slotPlan(w workload) (slots, smWorkers int) {
	if !w.Sweep {
		return 1, 1 // one cell at a time on one SM worker, as timed
	}
	budget := runtime.GOMAXPROCS(0)
	slots = min(runtime.NumCPU(), budget, len(w.Cells))
	return max(slots, 1), max(budget/max(slots, 1), 1)
}

// replayAll replays every cell of the workload with replayCell, slots of
// them in flight, and returns each cell's result, its event count and its
// outcome, plus the wall time.
func replayAll(w workload, seed int64, tr *tracer, capture func(*prepared)) ([]*caba.Result, []uint64, []outcome, float64) {
	slots, smWorkers := slotPlan(w)
	cfg := w.config()
	cfg.SMWorkers = smWorkers
	results := make([]*caba.Result, len(w.Cells))
	events := make([]uint64, len(w.Cells))
	outs := make([]outcome, len(w.Cells))
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := w.Cells[i]
				r, ev, err := replayCell(tr, cfg, c, seed, capture)
				results[i], events[i] = r, ev
				outs[i] = outcomeOf(c.key(), r, err)
			}
		}()
	}
	for i := range w.Cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, events, outs, time.Since(start).Seconds()
}

// childReplay runs the replay with no spans and no profile: the baseline
// trace.overhead_pct compares the traced replay with.
func childReplay(w workload, seed int64) repReport {
	_, _, outs, wall := replayAll(w, seed, nil, nil)
	return repReport{Pid: os.Getpid(), Cells: outs, WallS: wall}
}

// childTrace replays the workload's cells with spans around every call
// into a layer and a CPU profile over the replay, then runs the
// standalone layer drivers on the workload's own inputs.
func childTrace(w workload, seed int64, dir string) (traceReport, error) {
	var rep traceReport
	tr := newTracer()
	var inputMu sync.Mutex
	inputs := map[string][]byte{}
	capture := func(p *prepared) {
		inputMu.Lock()
		defer inputMu.Unlock()
		if _, ok := inputs[p.inst.App.Name]; !ok {
			inputs[p.inst.App.Name] = inputSample(p)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return rep, fmt.Errorf("cpu profile: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := usage()
	results, events, outs, wall := replayAll(w, seed, tr, capture)
	cpu1, _ := usage()
	runtime.ReadMemStats(&ms1)
	pprof.StopCPUProfile()
	rep.Cells, rep.WallS = outs, wall

	split, err := splitProfile(prof.Bytes())
	if err != nil {
		return rep, err
	}
	rep.Profile = split
	shares := split.Shares
	m := simCounters(results, events)
	m["gpu.run_s"] = tr.total("gpu.run")
	m["gpu.ns_per_ticked_cycle"] = ratio(m["gpu.run_s"]*1e9, m["gpu.ticked_cycles"])
	delete(m, "gpu.ticked_cycles")
	m["workloads.instantiate_s"] = tr.total("workloads.instantiate")
	m["workloads.prepare_s"] = tr.total("workloads.prepare")
	for _, l := range []string{"gpu", "core", "isa", "mem", "timing"} {
		m[l+".cpu_share"] = shares[l]
	}
	// The timing layer's self time over the replay, spread over the events
	// the replayed cells pushed through their queues.
	m["timing.ns_per_event"] = ratio(shares["timing"]*(cpu1-cpu0)*1e9, m["timing.events"])
	m["go.map_share"] = shares["go.map"]
	m["go.gc_cpu_frac"] = ms1.GCCPUFraction
	m["go.num_gc"] = float64(ms1.NumGC - ms0.NumGC)

	var all []byte
	for _, c := range w.Cells {
		if in, ok := inputs[c.App]; ok {
			all = append(all, in...)
			delete(inputs, c.App)
		}
	}
	codec, cratio, err := codecCost(all)
	if err != nil {
		return rep, err
	}
	m["compress.ns_per_line.bdi"] = codec[compress.AlgBDI]
	m["compress.ns_per_line.fpc"] = codec[compress.AlgFPC]
	m["compress.ns_per_line.cpack"] = codec[compress.AlgCPack]
	m["compress.ratio"] = cratio
	if m["core.decomp_ns_per_line"], m["core.comp_ns_per_line"], err = assistCost(all); err != nil {
		return rep, err
	}
	// A ratio with nothing to divide by is left out, so the parent reports
	// it missing (JSON has no NaN).
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
	rep.Metrics = m

	rep.Spans = filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", w.Name, seed))
	return rep, tr.write(rep.Spans)
}

// simCounters aggregates the cells' simulated statistics into the
// per-layer counts: sums of counters, and ratios of sums.
func simCounters(results []*caba.Result, events []uint64) map[string]float64 {
	var (
		cycles, ffCycles, ffSkips, warp, thread, assist, assistWarps, killed float64
		slots                                                                [5]float64
		l1h, l1m, l2h, l2m, flits, dramR, dramW, acts, busy, memCycles       float64
		mdh, mdm, loads, loadLat, comp, decomp, mismatches                   float64
		pfTrig, pfUseful, pfThrottled, memoHit, memoMiss, memoNoSlot, ev     float64
	)
	for i, r := range results {
		if r == nil {
			continue
		}
		s := r.Stats
		cycles += float64(r.Cycles)
		ffCycles += float64(r.FFCycles)
		ffSkips += float64(r.FFSkips)
		warp += float64(s.WarpInstrs)
		thread += float64(s.ThreadInstrs)
		assist += float64(s.AssistInstrs)
		assistWarps += float64(s.AssistWarps)
		killed += float64(s.AssistKilled)
		for k := range slots {
			slots[k] += float64(s.IssueSlots[k])
		}
		l1h += float64(s.L1Hits)
		l1m += float64(s.L1Misses)
		l2h += float64(s.L2Hits)
		l2m += float64(s.L2Misses)
		flits += float64(s.FlitsToMem + s.FlitsFromMem)
		dramR += float64(s.DRAMReads)
		dramW += float64(s.DRAMWrites)
		acts += float64(s.DRAMActivates)
		busy += float64(s.DRAMBusyCycles)
		memCycles += float64(s.MemCycles)
		mdh += float64(s.MDHits)
		mdm += float64(s.MDMisses)
		loads += float64(s.LoadCount)
		loadLat += float64(s.LoadLatTotal)
		comp += float64(s.LinesCompressed)
		decomp += float64(s.LinesDecompressed)
		mismatches += float64(r.DecompMismatches)
		pfTrig += float64(s.PrefetchTriggers)
		pfUseful += float64(s.PrefetchUseful)
		pfThrottled += float64(s.PrefetchThrottled)
		memoHit += float64(s.MemoHits)
		memoMiss += float64(s.MemoMisses)
		memoNoSlot += float64(s.MemoNoSlot)
		ev += float64(events[i])
	}
	allSlots := slots[0] + slots[1] + slots[2] + slots[3] + slots[4]
	dramReqs := dramR + dramW
	return map[string]float64{
		"gpu.ticked_cycles":           cycles - ffCycles,
		"gpu.ff_cycle_frac":           ratio(ffCycles, cycles),
		"gpu.ff_skips":                ffSkips,
		"gpu.warp_instrs":             warp,
		"gpu.ipc":                     ratio(thread, cycles),
		"gpu.slot_active_frac":        ratio(slots[0], allSlots),
		"gpu.slot_compute_stall_frac": ratio(slots[1], allSlots),
		"gpu.slot_mem_stall_frac":     ratio(slots[2], allSlots),
		"gpu.slot_datadep_frac":       ratio(slots[3], allSlots),
		"gpu.slot_idle_frac":          ratio(slots[4], allSlots),
		"gpu.prefetch_useful_frac":    ratio(pfUseful, pfTrig),
		"gpu.prefetch_throttled":      pfThrottled,
		"gpu.memo_hit_frac":           ratio(memoHit, memoHit+memoMiss),
		"gpu.memo_noslot":             memoNoSlot,
		"core.assist_warps":           assistWarps,
		"core.assist_instrs":          assist,
		"core.assist_per_parent":      ratio(assist, warp),
		"core.assist_killed_frac":     ratio(killed, assistWarps),
		"mem.l1_accesses":             l1h + l1m,
		"mem.l1_hit_frac":             ratio(l1h, l1h+l1m),
		"mem.l2_hit_frac":             ratio(l2h, l2h+l2m),
		"mem.flits":                   flits,
		"mem.dram_reqs":               dramReqs,
		"mem.dram_bw_util":            ratio(busy, memCycles),
		"mem.dram_row_hit_frac":       ratio(dramReqs-acts, dramReqs),
		"mem.md_hit_frac":             ratio(mdh, mdh+mdm),
		"mem.load_latency_cycles":     ratio(loadLat, loads),
		"mem.lines_compressed":        comp,
		"mem.lines_decompressed":      decomp,
		"mem.decomp_mismatches":       mismatches,
		"timing.events":               ev,
		"timing.events_per_cycle":     ratio(ev, cycles),
	}
}
