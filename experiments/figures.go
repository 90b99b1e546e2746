package experiments

import (
	"errors"
	"fmt"
	"sync"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/gpu"
	"github.com/caba-sim/caba/internal/obs"
	"github.com/caba-sim/caba/internal/stats"
	"github.com/caba-sim/caba/internal/workloads"
)

// --- Figure 1: issue-cycle breakdown at 1/2x, 1x, 2x bandwidth ---

// Fig1Row is one application's breakdown at one bandwidth point.
type Fig1Row struct {
	App         string
	MemoryBound bool
	BWScale     float64
	// Fractions: Active, ComputeStall, MemoryStall, DataDepStall, Idle.
	Breakdown [stats.NumStallKinds]float64
}

// Fig1Result carries all rows plus the paper's headline aggregate.
type Fig1Result struct {
	Rows []Fig1Row
	// MemDepFraction1x is Memory+DataDep stall share for memory-bound
	// apps at baseline bandwidth (paper: 61%).
	MemDepFraction1x float64
	// MemDepFraction2x is the same at doubled bandwidth (paper: 51%).
	MemDepFraction2x float64
}

// Fig1 reproduces Figure 1. When some grid cells failed, the returned
// error is non-nil but the figure still carries every completed row (the
// broken cells are simply absent).
func Fig1(o Options) (*Fig1Result, error) {
	apps := Fig1Suite()
	bws := []float64{0.5, 1.0, 2.0}
	results, sweepErr := o.sweep(apps, []caba.Design{caba.Base}, bws)
	out := o.out()
	fmt.Fprintf(out, "Figure 1: issue-cycle breakdown (Base design)\n")
	fmt.Fprintf(out, "%-6s %-5s %8s %8s %8s %8s %8s\n", "app", "bw", "active", "comp", "mem", "dep", "idle")
	res := &Fig1Result{}
	var memdep1x, memdep2x []float64
	for _, name := range apps {
		app := workloads.ByName(name)
		for _, bw := range bws {
			r := results[runKey{name, caba.Base.Name, bw}]
			if r == nil {
				continue
			}
			br := breakdownOf(r)
			res.Rows = append(res.Rows, Fig1Row{App: name, MemoryBound: app.MemoryBound, BWScale: bw, Breakdown: br})
			fmt.Fprintf(out, "%-6s %4.1fx %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				name, bw, 100*br[stats.Active], 100*br[stats.ComputeStall],
				100*br[stats.MemoryStall], 100*br[stats.DataDepStall], 100*br[stats.IdleCycle])
			if app.MemoryBound {
				md := br[stats.MemoryStall] + br[stats.DataDepStall]
				if bw == 1.0 {
					memdep1x = append(memdep1x, md)
				}
				if bw == 2.0 {
					memdep2x = append(memdep2x, md)
				}
			}
		}
	}
	res.MemDepFraction1x = mean(memdep1x)
	res.MemDepFraction2x = mean(memdep2x)
	fmt.Fprintf(out, "memory-bound apps: mem+dep stalls %.0f%% at 1x (paper 61%%), %.0f%% at 2x (paper 51%%)\n",
		100*res.MemDepFraction1x, 100*res.MemDepFraction2x)
	return res, sweepErr
}

// --- Figure 2: statically unallocated registers ---

// Fig2Row is one application's register allocation.
type Fig2Row struct {
	App         string
	Unallocated float64
	LimitedBy   string
}

// Fig2Result carries the rows and the average (paper: 24%).
type Fig2Result struct {
	Rows    []Fig2Row
	Average float64
}

// Fig2 reproduces Figure 2. It is a static occupancy analysis — no
// simulation needed (as in the paper).
func Fig2(o Options) (*Fig2Result, error) {
	cfg := o.cfg()
	out := o.out()
	fmt.Fprintf(out, "Figure 2: fraction of statically unallocated registers\n")
	res := &Fig2Result{}
	var fractions []float64
	for _, a := range workloads.Fig1Apps() {
		inst, err := a.Instantiate(&cfg)
		if err != nil {
			return nil, err
		}
		occ := gpu.ComputeOccupancy(&cfg, inst.Kernel, 0)
		res.Rows = append(res.Rows, Fig2Row{App: a.Name, Unallocated: occ.UnallocatedRegs, LimitedBy: occ.LimitedBy})
		fractions = append(fractions, occ.UnallocatedRegs)
		fmt.Fprintf(out, "%-6s %6.1f%%  (limited by %s)\n", a.Name, 100*occ.UnallocatedRegs, occ.LimitedBy)
	}
	res.Average = mean(fractions)
	fmt.Fprintf(out, "average unallocated: %.1f%% (paper: 24%%)\n", 100*res.Average)
	return res, nil
}

// --- Figures 7, 8, 9: the five-design compression study ---

// DesignMetrics aggregates one design across the suite.
type DesignMetrics struct {
	Design      string
	Speedup     map[string]float64 // per app, vs Base
	BWUtil      map[string]float64
	EnergyRel   map[string]float64 // vs Base
	MeanSpeedup float64
	MaxSpeedup  float64
	MeanBWUtil  float64
	MeanEnergy  float64 // relative
}

// StudyResult is the shared Figure 7/8/9 sweep.
type StudyResult struct {
	Designs []*DesignMetrics
	// MDHitRate is the average metadata-cache hit rate under CABA-BDI
	// (Section 4.3.2; paper: ~85%).
	MDHitRate float64
	// DRAMEnergyReduction is CABA-BDI's DRAM energy saving vs Base
	// (paper: 29.5% power reduction).
	DRAMEnergyReduction float64
}

var study789Designs = []caba.Design{
	caba.Base, caba.HWBDIMem, caba.HWBDI, caba.CABABDI, caba.IdealBDI,
}

// studyCache memoizes the expensive five-design sweep so Figures 7, 8, 9
// and the MD-cache table (which all read the same runs) cost one sweep.
var studyCache sync.Map // studyKey -> *StudyResult

type studyKey struct {
	scale float64
	seed  int64
}

// Study789 runs the five-design sweep shared by Figures 7, 8 and 9.
func Study789(o Options) (*StudyResult, error) {
	key := studyKey{o.Scale, o.Seed}
	if v, ok := studyCache.Load(key); ok {
		return v.(*StudyResult), nil
	}
	s, err := study789(o)
	if err == nil {
		studyCache.Store(key, s)
	}
	return s, err
}

func study789(o Options) (*StudyResult, error) {
	apps := CompressSuite()
	results, sweepErr := o.sweep(apps, study789Designs, nil)
	study := &StudyResult{}
	var mdRates, dramSave []float64
	for _, d := range study789Designs {
		m := &DesignMetrics{
			Design:    d.Name,
			Speedup:   map[string]float64{},
			BWUtil:    map[string]float64{},
			EnergyRel: map[string]float64{},
		}
		var sp, bw, en []float64
		for _, app := range apps {
			base := results[runKey{app, caba.Base.Name, 1.0}]
			r := results[runKey{app, d.Name, 1.0}]
			if base == nil || r == nil {
				continue
			}
			speedup := r.IPC / base.IPC
			m.Speedup[app] = speedup
			m.BWUtil[app] = r.BandwidthUtil
			m.EnergyRel[app] = r.EnergyNJ / base.EnergyNJ
			sp = append(sp, speedup)
			bw = append(bw, r.BandwidthUtil)
			en = append(en, r.EnergyNJ/base.EnergyNJ)
			if d.Name == caba.CABABDI.Name {
				if mh := r.MDHitRate; mh > 0 {
					mdRates = append(mdRates, mh)
				}
				dramSave = append(dramSave, 1-r.DRAMEnergyNJ/base.DRAMEnergyNJ)
				if speedup > m.MaxSpeedup {
					m.MaxSpeedup = speedup
				}
			}
			if speedup > m.MaxSpeedup {
				m.MaxSpeedup = speedup
			}
		}
		m.MeanSpeedup = geomean(sp)
		m.MeanBWUtil = mean(bw)
		m.MeanEnergy = mean(en)
		study.Designs = append(study.Designs, m)
	}
	study.MDHitRate = mean(mdRates)
	study.DRAMEnergyReduction = mean(dramSave)
	return study, sweepErr
}

// Metric selects what a study figure reports.
func (s *StudyResult) byName(name string) *DesignMetrics {
	for _, d := range s.Designs {
		if d.Design == name {
			return d
		}
	}
	return nil
}

// CABASpeedup returns CABA-BDI's mean speedup over Base.
func (s *StudyResult) CABASpeedup() float64 { return s.byName(caba.CABABDI.Name).MeanSpeedup }

// IdealSpeedup returns Ideal-BDI's mean speedup over Base.
func (s *StudyResult) IdealSpeedup() float64 { return s.byName(caba.IdealBDI.Name).MeanSpeedup }

// HWMemSpeedup returns HW-BDI-Mem's mean speedup over Base.
func (s *StudyResult) HWMemSpeedup() float64 { return s.byName(caba.HWBDIMem.Name).MeanSpeedup }

// HWSpeedup returns HW-BDI's mean speedup over Base.
func (s *StudyResult) HWSpeedup() float64 { return s.byName(caba.HWBDI.Name).MeanSpeedup }

// BaseBWUtil / CABABWUtil return the Figure 8 aggregates.
func (s *StudyResult) BaseBWUtil() float64 { return s.byName(caba.Base.Name).MeanBWUtil }

// CABABWUtil returns CABA-BDI's mean bandwidth utilization.
func (s *StudyResult) CABABWUtil() float64 { return s.byName(caba.CABABDI.Name).MeanBWUtil }

// CABAEnergy returns CABA-BDI's mean energy relative to Base (Figure 9).
func (s *StudyResult) CABAEnergy() float64 { return s.byName(caba.CABABDI.Name).MeanEnergy }

func renderStudy(o Options, s *StudyResult, metric string) {
	out := o.out()
	apps := CompressSuite()
	fmt.Fprintf(out, "%-6s", "app")
	for _, d := range s.Designs {
		fmt.Fprintf(out, " %12s", d.Design)
	}
	fmt.Fprintln(out)
	for _, app := range apps {
		fmt.Fprintf(out, "%-6s", app)
		for _, d := range s.Designs {
			switch metric {
			case "speedup":
				fmt.Fprintf(out, " %12.2f", d.Speedup[app])
			case "bw":
				fmt.Fprintf(out, " %11.1f%%", 100*d.BWUtil[app])
			case "energy":
				fmt.Fprintf(out, " %12.2f", d.EnergyRel[app])
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-6s", "MEAN")
	for _, d := range s.Designs {
		switch metric {
		case "speedup":
			fmt.Fprintf(out, " %12.2f", d.MeanSpeedup)
		case "bw":
			fmt.Fprintf(out, " %11.1f%%", 100*d.MeanBWUtil)
		case "energy":
			fmt.Fprintf(out, " %12.2f", d.MeanEnergy)
		}
	}
	fmt.Fprintln(out)
}

// Fig7 reproduces normalized performance (paper: CABA-BDI +41.7%, within
// 2.8% of Ideal, 9.9% over HW-BDI-Mem).
func Fig7(o Options) (*StudyResult, error) {
	s, err := Study789(o)
	if s == nil {
		return nil, err
	}
	fmt.Fprintf(o.out(), "Figure 7: normalized performance (speedup vs Base)\n")
	renderStudy(o, s, "speedup")
	fmt.Fprintf(o.out(), "CABA-BDI mean speedup %.2fx (paper 1.417x), Ideal %.2fx, HW-BDI-Mem %.2fx, HW-BDI %.2fx\n",
		s.CABASpeedup(), s.IdealSpeedup(), s.HWMemSpeedup(), s.HWSpeedup())
	return s, err
}

// Fig8 reproduces memory bandwidth utilization (paper: 53.6% -> 35.6%).
func Fig8(o Options) (*StudyResult, error) {
	s, err := Study789(o)
	if s == nil {
		return nil, err
	}
	fmt.Fprintf(o.out(), "Figure 8: DRAM bandwidth utilization\n")
	renderStudy(o, s, "bw")
	fmt.Fprintf(o.out(), "Base %.1f%% -> CABA-BDI %.1f%% (paper: 53.6%% -> 35.6%%); CABA MD-cache hit rate %.0f%% (paper ~85%%)\n",
		100*s.BaseBWUtil(), 100*s.CABABWUtil(), 100*s.MDHitRate)
	return s, err
}

// Fig9 reproduces normalized energy (paper: CABA-BDI -22.2% vs Base,
// DRAM power -29.5%).
func Fig9(o Options) (*StudyResult, error) {
	s, err := Study789(o)
	if s == nil {
		return nil, err
	}
	fmt.Fprintf(o.out(), "Figure 9: normalized energy (vs Base)\n")
	renderStudy(o, s, "energy")
	fmt.Fprintf(o.out(), "CABA-BDI energy %.2fx of Base (paper 0.78x); DRAM energy -%.0f%% (paper -29.5%%)\n",
		s.CABAEnergy(), 100*s.DRAMEnergyReduction)
	return s, err
}

// --- Figures 10 & 11: algorithm comparison ---

// AlgoResult carries per-algorithm speedups and compression ratios.
type AlgoResult struct {
	// Speedup[designName][app], vs Base.
	Speedup map[string]map[string]float64
	// Ratio[designName][app]: measured DRAM-burst compression ratio.
	Ratio map[string]map[string]float64
	// Mean per design.
	MeanSpeedup map[string]float64
	MeanRatio   map[string]float64
}

var algoDesigns = []caba.Design{caba.CABAFPC, caba.CABABDI, caba.CABACPack, caba.CABABest}

// Fig10and11 runs the algorithm sweep once for both figures.
func Fig10and11(o Options) (*AlgoResult, error) {
	apps := CompressSuite()
	designs := append([]caba.Design{caba.Base}, algoDesigns...)
	results, sweepErr := o.sweep(apps, designs, nil)
	res := &AlgoResult{
		Speedup:     map[string]map[string]float64{},
		Ratio:       map[string]map[string]float64{},
		MeanSpeedup: map[string]float64{},
		MeanRatio:   map[string]float64{},
	}
	for _, d := range algoDesigns {
		res.Speedup[d.Name] = map[string]float64{}
		res.Ratio[d.Name] = map[string]float64{}
		var sp, ra []float64
		for _, app := range apps {
			base := results[runKey{app, caba.Base.Name, 1.0}]
			r := results[runKey{app, d.Name, 1.0}]
			if base == nil || r == nil {
				continue
			}
			res.Speedup[d.Name][app] = r.IPC / base.IPC
			res.Ratio[d.Name][app] = r.CompressionRatio
			sp = append(sp, r.IPC/base.IPC)
			ra = append(ra, r.CompressionRatio)
		}
		res.MeanSpeedup[d.Name] = geomean(sp)
		res.MeanRatio[d.Name] = mean(ra)
	}
	out := o.out()
	fmt.Fprintf(out, "Figure 10: speedup by compression algorithm / Figure 11: compression ratio\n")
	fmt.Fprintf(out, "%-6s", "app")
	for _, d := range algoDesigns {
		fmt.Fprintf(out, " %14s", d.Name)
	}
	fmt.Fprintln(out)
	for _, app := range apps {
		fmt.Fprintf(out, "%-6s", app)
		for _, d := range algoDesigns {
			fmt.Fprintf(out, "  %5.2fx/%5.2fr", res.Speedup[d.Name][app], res.Ratio[d.Name][app])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "means: FPC %.2fx (paper 1.207x), BDI %.2fx (paper 1.417x), C-Pack %.2fx (paper 1.352x), Best %.2fx\n",
		res.MeanSpeedup[caba.CABAFPC.Name], res.MeanSpeedup[caba.CABABDI.Name],
		res.MeanSpeedup[caba.CABACPack.Name], res.MeanSpeedup[caba.CABABest.Name])
	return res, sweepErr
}

// --- Figure 12: bandwidth sensitivity ---

// Fig12Result carries mean speedups normalized to 1x Base.
type Fig12Result struct {
	// Mean[designName][bw] vs Base@1x.
	Mean map[string]map[float64]float64
}

// Fig12 reproduces the bandwidth sensitivity study (paper: CABA at 1x ~
// Base at 2x).
func Fig12(o Options) (*Fig12Result, error) {
	apps := CompressSuite()
	bws := []float64{0.5, 1.0, 2.0}
	results, sweepErr := o.sweep(apps, []caba.Design{caba.Base, caba.CABABDI}, bws)
	res := &Fig12Result{Mean: map[string]map[float64]float64{
		caba.Base.Name:    {},
		caba.CABABDI.Name: {},
	}}
	out := o.out()
	fmt.Fprintf(out, "Figure 12: sensitivity to peak memory bandwidth (mean speedup vs 1x Base)\n")
	for _, d := range []caba.Design{caba.Base, caba.CABABDI} {
		for _, bw := range bws {
			var sp []float64
			for _, app := range apps {
				ref := results[runKey{app, caba.Base.Name, 1.0}]
				r := results[runKey{app, d.Name, bw}]
				if ref == nil || r == nil {
					continue
				}
				sp = append(sp, r.IPC/ref.IPC)
			}
			res.Mean[d.Name][bw] = geomean(sp)
			fmt.Fprintf(out, "%4.1fx-%-9s %.2f\n", bw, d.Name, res.Mean[d.Name][bw])
		}
	}
	return res, sweepErr
}

// --- Figure 13: cache compression ---

// Fig13Result carries per-design speedups vs CABA-BDI (bandwidth-only).
type Fig13Result struct {
	Speedup     map[string]map[string]float64 // design -> app -> vs plain CABA-BDI
	MeanSpeedup map[string]float64
}

// Fig13 reproduces the selective cache-compression study.
func Fig13(o Options) (*Fig13Result, error) {
	apps := CompressSuite()
	designs := []caba.Design{
		caba.CABABDI,
		caba.CacheCompressed("L1", 2), caba.CacheCompressed("L1", 4),
		caba.CacheCompressed("L2", 2), caba.CacheCompressed("L2", 4),
	}
	results, sweepErr := o.sweep(apps, designs, nil)
	res := &Fig13Result{Speedup: map[string]map[string]float64{}, MeanSpeedup: map[string]float64{}}
	out := o.out()
	fmt.Fprintf(out, "Figure 13: cache compression with CABA (speedup vs CABA-BDI)\n")
	fmt.Fprintf(out, "%-6s", "app")
	for _, d := range designs[1:] {
		fmt.Fprintf(out, " %12s", d.Name)
	}
	fmt.Fprintln(out)
	for _, d := range designs[1:] {
		res.Speedup[d.Name] = map[string]float64{}
	}
	for _, app := range apps {
		ref := results[runKey{app, caba.CABABDI.Name, 1.0}]
		fmt.Fprintf(out, "%-6s", app)
		for _, d := range designs[1:] {
			r := results[runKey{app, d.Name, 1.0}]
			if ref == nil || r == nil {
				fmt.Fprintf(out, " %12s", "-")
				continue
			}
			sp := r.IPC / ref.IPC
			res.Speedup[d.Name][app] = sp
			fmt.Fprintf(out, " %12.2f", sp)
		}
		fmt.Fprintln(out)
	}
	for _, d := range designs[1:] {
		var sp []float64
		for _, app := range apps {
			if v, ok := res.Speedup[d.Name][app]; ok {
				sp = append(sp, v)
			}
		}
		res.MeanSpeedup[d.Name] = geomean(sp)
	}
	fmt.Fprintf(out, "means:")
	for _, d := range designs[1:] {
		fmt.Fprintf(out, " %s %.2f", d.Name, res.MeanSpeedup[d.Name])
	}
	fmt.Fprintln(out)
	return res, sweepErr
}

// --- Figure 14: assist-warp use cases beyond compression (Section 7) ---

// Fig14Result carries the use-case study: per-app speedups of the
// prefetch, memoization and combined designs over Base, the use-case
// activity counters, and the stall-attribution shift that explains each
// showcase result.
type Fig14Result struct {
	// Speedup: design name -> app -> IPC relative to Base. Includes the
	// honest losses — apps where a use case fires without paying off.
	Speedup map[string]map[string]float64
	// Prefetch activity per app under CABA-Prefetch:
	// [triggers, useful fills, throttled].
	Prefetch map[string][3]uint64
	// Memo activity per app under CABA-Memo: [hits, misses, updates].
	Memo map[string][3]uint64
	// StallShift: app -> stall cause name -> (favorable design − Base)
	// unissued-slot delta. Negative means the use case removed that
	// stall; the new causes (pf-mshr, memo-wait) show where its own
	// machinery charges time.
	StallShift map[string]map[string]int64
}

// UseCaseSuite is the Figure 14 application set: one app built to favor
// each use case (STRD for prefetching, TBL for memoization) plus two
// paper apps (PVC, RAY) as controls where the mechanisms fire — or
// throttle — without a favorable pattern.
func UseCaseSuite() []string { return []string{"STRD", "TBL", "PVC", "RAY"} }

// fig14Showcases pairs each showcase app with its favorable design for
// the stall-shift panel.
var fig14Showcases = []struct {
	app    string
	design caba.Design
}{
	{"STRD", caba.CABAPrefetch},
	{"TBL", caba.CABAMemo},
}

// Fig14 runs the use-case comparison. The speedup grid goes through the
// normal sweep (checkpointable, farmable — the design names key the
// cells); the stall-shift panel re-runs the two showcases with stall
// attribution armed, which observes without perturbing simulated state.
func Fig14(o Options) (*Fig14Result, error) {
	apps := UseCaseSuite()
	designs := []caba.Design{caba.Base, caba.CABAPrefetch, caba.CABAMemo, caba.CABACombined}
	results, sweepErr := o.sweep(apps, designs, nil)
	res := &Fig14Result{
		Speedup:    map[string]map[string]float64{},
		Prefetch:   map[string][3]uint64{},
		Memo:       map[string][3]uint64{},
		StallShift: map[string]map[string]int64{},
	}
	out := o.out()
	fmt.Fprintf(out, "Figure 14: assist-warp use cases (speedup vs Base; losses included)\n")
	fmt.Fprintf(out, "%-6s", "app")
	for _, d := range designs[1:] {
		fmt.Fprintf(out, " %14s", d.Name)
	}
	fmt.Fprintln(out)
	for _, d := range designs[1:] {
		res.Speedup[d.Name] = map[string]float64{}
	}
	for _, app := range apps {
		ref := results[runKey{app, caba.Base.Name, 1.0}]
		fmt.Fprintf(out, "%-6s", app)
		for _, d := range designs[1:] {
			r := results[runKey{app, d.Name, 1.0}]
			if ref == nil || r == nil {
				fmt.Fprintf(out, " %14s", "-")
				continue
			}
			sp := r.IPC / ref.IPC
			res.Speedup[d.Name][app] = sp
			fmt.Fprintf(out, " %14.3f", sp)
		}
		fmt.Fprintln(out)
		if r := results[runKey{app, caba.CABAPrefetch.Name, 1.0}]; r != nil && r.Stats != nil {
			res.Prefetch[app] = [3]uint64{r.Stats.PrefetchTriggers, r.Stats.PrefetchUseful, r.Stats.PrefetchThrottled}
		}
		if r := results[runKey{app, caba.CABAMemo.Name, 1.0}]; r != nil && r.Stats != nil {
			res.Memo[app] = [3]uint64{r.Stats.MemoHits, r.Stats.MemoMisses, r.Stats.MemoUpdates}
		}
	}
	fmt.Fprintf(out, "activity: ")
	for _, app := range apps {
		p, m := res.Prefetch[app], res.Memo[app]
		fmt.Fprintf(out, "%s pf(trig=%d useful=%d thr=%d) memo(hit=%d miss=%d upd=%d)  ",
			app, p[0], p[1], p[2], m[0], m[1], m[2])
	}
	fmt.Fprintln(out)

	// Stall-attribution shift for the showcases: where did the removed
	// (or added) stall slots go?
	for _, sc := range fig14Showcases {
		shift, err := o.stallShift(sc.app, sc.design)
		if err != nil {
			sweepErr = errors.Join(sweepErr, err)
			continue
		}
		res.StallShift[sc.app] = shift
		fmt.Fprintf(out, "stall shift %s (%s - Base):", sc.app, sc.design.Name)
		for _, c := range causeOrder() {
			if d := shift[c]; d != 0 {
				fmt.Fprintf(out, " %s%+d", c+":", d)
			}
		}
		fmt.Fprintln(out)
	}
	return res, sweepErr
}

// causeOrder returns every stall-cause label in enum order.
func causeOrder() []string {
	names := make([]string, obs.NumCauses)
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		names[c] = c.String()
	}
	return names
}

// stallShift runs app under Base and design with stall attribution armed
// and returns the per-cause unissued-slot delta (design − Base).
func (o *Options) stallShift(app string, design caba.Design) (map[string]int64, error) {
	run := o.runHook
	if run == nil {
		run = caba.RunContext
	}
	attr := func(d caba.Design) (*caba.StallAttribution, error) {
		cfg := o.cfg()
		cfg.AttributeStalls = true
		r, err := run(o.ctx(), cfg, d, app, o.Seed)
		if err != nil {
			return nil, err
		}
		return r.Stalls, nil
	}
	base, err := attr(caba.Base)
	if err != nil {
		return nil, err
	}
	with, err := attr(design)
	if err != nil {
		return nil, err
	}
	if base == nil || with == nil {
		// A runHook stub without attribution: no shift to report.
		return map[string]int64{}, nil
	}
	bt, wt := base.Totals(), with.Totals()
	shift := map[string]int64{}
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		if d := int64(wt[c]) - int64(bt[c]); d != 0 {
			shift[c.String()] = d
		}
	}
	return shift, nil
}

// Table1 prints the live simulated-system configuration.
func Table1(o Options) {
	cfg := o.cfg()
	out := o.out()
	fmt.Fprintf(out, "Table 1: major parameters of the simulated system\n")
	fmt.Fprintf(out, "System Overview    %d SMs, %d threads/warp, %d memory channels\n", cfg.NumSMs, cfg.WarpSize, cfg.NumChannels)
	fmt.Fprintf(out, "Shader Core        %dMHz, GTO scheduler, %d schedulers/SM\n", cfg.CoreClockMHz, cfg.NumSchedulers)
	fmt.Fprintf(out, "Resources / SM     %d warps/SM, %d registers, %dKB shared memory\n", cfg.MaxWarpsPerSM, cfg.RegFilePerSM, cfg.SharedMemPerSM>>10)
	fmt.Fprintf(out, "L1 Cache           %dKB, %d-way\n", cfg.L1Size>>10, cfg.L1Assoc)
	fmt.Fprintf(out, "L2 Cache           %dKB, %d-way\n", cfg.L2Size>>10, cfg.L2Assoc)
	fmt.Fprintf(out, "Memory Model       %.1fGB/s, %d GDDR5 MCs, FR-FCFS, %d banks/MC\n", cfg.PeakBandwidthGBs(), cfg.NumChannels, cfg.BanksPerChannel)
	t := cfg.Timing
	fmt.Fprintf(out, "GDDR5 Timing       tCL=%d tRP=%d tRC=%d tRAS=%d tRCD=%d tRRD=%d tCCD=%d tWR=%d\n",
		t.TCL, t.TRP, t.TRC, t.TRAS, t.TRCD, t.TRRD, t.TCCD, t.TWR)
}
