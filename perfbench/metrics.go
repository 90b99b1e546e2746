package main

import (
	"math"
	"slices"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the sweep sees, all host-side, all
// measured with tracing off. Failures are carried by the result's
// attempted/failed counts rather than a metric, since a healthy run has
// none and a metric must never read 0.
var endToEnd = []metricSpec{
	{"cells_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_cell", "s", "lower", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_cell", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, named by module layer, that
// every workload has. README.md lists which end-to-end metric and
// workload each one should move.
var perLayer = []metricSpec{
	{"workloads.instantiate_s", "s", "lower", 0},
	{"workloads.prepare_s", "s", "lower", 0},
	{"compress.ns_per_line.bdi", "ns", "lower", 0},
	{"compress.ns_per_line.fpc", "ns", "lower", 0},
	{"compress.ns_per_line.cpack", "ns", "lower", 0},
	{"compress.ratio", "ratio", "higher", 0},
	{"gpu.run_s", "s", "lower", 0},
	{"gpu.cpu_share", "frac", "lower", 0},
	{"gpu.ns_per_ticked_cycle", "ns", "lower", 0},
	{"gpu.ff_cycle_frac", "frac", "higher", 0},
	{"gpu.ff_skips", "count", "higher", 0},
	{"gpu.warp_instrs", "count", "lower", 0},
	{"gpu.ipc", "instr/cycle", "higher", 0},
	{"gpu.slot_active_frac", "frac", "higher", 0},
	{"gpu.slot_mem_stall_frac", "frac", "lower", 0},
	{"gpu.slot_datadep_frac", "frac", "lower", 0},
	{"gpu.slot_idle_frac", "frac", "lower", 0},
	{"core.cpu_share", "frac", "lower", 0},
	{"core.decomp_ns_per_line", "ns", "lower", 0},
	{"core.comp_ns_per_line", "ns", "lower", 0},
	{"mem.cpu_share", "frac", "lower", 0},
	{"mem.l1_accesses", "count", "lower", 0},
	{"mem.l1_hit_frac", "frac", "higher", 0},
	{"mem.l2_hit_frac", "frac", "higher", 0},
	{"mem.flits", "count", "lower", 0},
	{"mem.dram_reqs", "count", "lower", 0},
	{"mem.dram_bw_util", "frac", "lower", 0},
	{"mem.dram_row_hit_frac", "frac", "higher", 0},
	{"mem.load_latency_cycles", "cycles", "lower", 0},
	{"timing.cpu_share", "frac", "lower", 0},
	{"timing.events", "count", "lower", 0},
	{"timing.events_per_cycle", "1/cycle", "lower", 0},
	{"timing.ns_per_event", "ns", "lower", 0},
	{"go.map_share", "frac", "lower", 0},
	{"go.gc_cpu_frac", "frac", "lower", 0},
	{"go.num_gc", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// scopedSpec is a per-layer figure that exists only on some workloads.
type scopedSpec struct {
	metricSpec
	Workloads []string
}

// The workloads that run assist warps, the sweep, and the prefetch and
// memoization use cases.
var (
	assistWorkloads = []string{"fig7-sweep", "assist-decomp", "assist-usecase"}
	sweepWorkloads  = []string{"fig7-sweep"}
	useCaseWorkload = []string{"assist-usecase"}
)

// scoped are the per-layer figures of some workloads only: the sweep's
// scheduling, the assist-warp and compression figures (mem-bound-base
// runs Base, which has neither, never stalls on a busy compute unit, and
// spends no measurable time in the isa package, which runs assist-warp
// routines) and the prefetch and memoization counts. A traced run prints
// them and stores them in its result file on the workloads listed. They
// are not in BENCHMARK.json, whose per-layer metrics every traced run
// emits.
var scoped = []scopedSpec{
	{metricSpec{"experiments.slot_util", "frac", "higher", 0}, sweepWorkloads},
	{metricSpec{"experiments.tail_s", "s", "lower", 0}, sweepWorkloads},
	{metricSpec{"isa.cpu_share", "frac", "lower", 0}, assistWorkloads},
	{metricSpec{"gpu.slot_compute_stall_frac", "frac", "lower", 0}, assistWorkloads},
	{metricSpec{"core.assist_warps", "count", "lower", 0}, assistWorkloads},
	{metricSpec{"core.assist_instrs", "count", "lower", 0}, assistWorkloads},
	{metricSpec{"core.assist_per_parent", "ratio", "lower", 0}, assistWorkloads},
	{metricSpec{"core.assist_killed_frac", "frac", "lower", 0}, assistWorkloads},
	{metricSpec{"mem.md_hit_frac", "frac", "higher", 0}, assistWorkloads},
	{metricSpec{"mem.lines_compressed", "count", "lower", 0}, assistWorkloads},
	{metricSpec{"mem.lines_decompressed", "count", "lower", 0}, assistWorkloads},
	{metricSpec{"mem.decomp_mismatches", "count", "lower", 0}, assistWorkloads},
	{metricSpec{"gpu.prefetch_useful_frac", "frac", "higher", 0}, useCaseWorkload},
	{metricSpec{"gpu.prefetch_throttled", "count", "lower", 0}, useCaseWorkload},
	{metricSpec{"gpu.memo_hit_frac", "frac", "higher", 0}, useCaseWorkload},
	{metricSpec{"gpu.memo_noslot", "count", "lower", 0}, useCaseWorkload},
}

// scopedFor returns the scoped figures that apply to workload name.
func scopedFor(name string) []metricSpec {
	var out []metricSpec
	for _, s := range scoped {
		if slices.Contains(s.Workloads, name) {
			out = append(out, s.metricSpec)
		}
	}
	return out
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs each spec'd value with its unit. Specs with no finite value
// in vals come back in missing, so a gap is reported, never read as 0.
func emit(specs []metricSpec, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, missing
}

// median returns the median of vs (NaN for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reading NaN (reported as missing, never as 0) when there
// is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
