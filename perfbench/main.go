// Command perfbench is the CABA simulator's sweep-throughput benchmark.
// It runs one workload for a given time, checks every cell's simulated
// result against a recorded digest, and prints the end-to-end metrics
// (tracing off) or the per-layer metrics (-trace 1), ending with one JSON
// line. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 30 --trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runBudget is how long one benchmark invocation may take in all; the
// children still running when it ends are killed and their cells count as
// failed.
const runBudget = 170 * time.Second

// recordedSeed is the seed digests.json holds digests for.
const recordedSeed = 1

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload name to cell key to digest, for
// recordedSeed.
type recordedDigests map[string]map[string]string

func main() {
	var (
		wname   = flag.String("workload", "fig7-sweep", "workload to run")
		seed    = flag.Int64("seed", 1, "seed of the simulated input data")
		seconds = flag.Int("seconds", 30, "how long to measure, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for results, spans and scratch files")
		child   = flag.String("child", "", "internal: run one measured step (rep, plain, replay, setup or trace) in this process")
		record  = flag.Bool("record", false, "run every workload once and rewrite digests.json under -root")
		root    = flag.String("root", ".", "repository root (for -record)")
		compare = flag.Bool("compare", false, "compare two result files given as arguments; refuses when their host meta differ")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	var err error
	switch {
	case *child != "":
		err = runChildMode(*child, *wname, *seed, *outDir)
	case *compare:
		err = compareResults(flag.Args())
	case *record:
		err = recordAll(*root, *outDir)
	default:
		err = bench(*wname, *seed, *seconds, *trace, *outDir)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runChildMode runs one measured step and prints its report as JSON.
func runChildMode(mode, wname string, seed int64, dir string) error {
	w, err := workloadByName(wname)
	if err != nil {
		return err
	}
	var rep any
	switch mode {
	case "rep":
		rep, err = childRep(w, seed, dir, false)
	case "plain":
		rep, err = childRep(w, seed, dir, true)
	case "replay":
		rep = childReplay(w, seed)
	case "setup":
		rep, err = childSetup(w, seed)
	case "trace":
		rep, err = childTrace(w, seed, dir)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawn runs this binary as a child step and decodes its JSON report.
func spawn(ctx context.Context, v any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child %v: decoding report: %w", args, err)
	}
	return nil
}

// result is one run's full record: the final JSON line plus the host
// meta and the figures that are not metrics.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Meta      hostMeta               `json:"meta"`
	Reps      int                    `json:"reps"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Scoped holds a traced run's per-layer figures that only some
	// workloads have (see scoped).
	Scoped map[string]metricValue `json:"scoped,omitempty"`
	// RepValues holds, for a timed run, every repetition's value of each
	// end-to-end metric (setup_s: every set-up pass), in run order; the
	// metrics are their medians.
	RepValues map[string][]float64 `json:"rep_values,omitempty"`
	// Kernel holds, for a timed run, the reference kernel's time in the
	// set-up process and in each repetition's, which turned that
	// process's host seconds into reference-host seconds; Unscaled holds
	// the run's metrics in host seconds.
	Kernel   map[string]kernelTime `json:"kernel,omitempty"`
	Unscaled map[string]float64    `json:"unscaled,omitempty"`
	// FailRatio is failed over attempted cells.
	FailRatio float64 `json:"fail_ratio"`
	// StealPct is the share of the host's CPU time the hypervisor took
	// from this machine while the run measured. It inflates the wall-time
	// metrics but not cpu_s_per_cell.
	StealPct float64 `json:"steal_pct"`
	// PaperGapPct is fig7-sweep's |CABA-BDI geomean speedup - 1.417| /
	// 1.417 × 100, a simulated accuracy figure that repeats exactly for a
	// seed.
	PaperGapPct float64 `json:"paper_gap_pct,omitempty"`
}

// bench runs one workload and prints the result.
func bench(wname string, seed int64, seconds, trace int, dir string) error {
	w, err := workloadByName(wname)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	var rec recordedDigests
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res := &result{Workload: w.Name, Seed: seed, Trace: trace, Meta: currentMeta()}
	var ref map[string]string
	if seed == recordedSeed {
		ref = rec[w.Name]
	}
	steal0, total0 := cpuJiffies()
	if trace == 1 {
		err = benchTraced(ctx, w, seed, dir, ref, res)
	} else {
		err = benchTimed(ctx, w, seed, seconds, dir, ref, res)
	}
	if err != nil {
		return err
	}
	if steal1, total1 := cpuJiffies(); total1 > total0 {
		res.StealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return report(res, dir)
}

// benchTimed measures the end-to-end metrics: set-up timed in one child,
// then fresh-process repetitions of the whole workload until the time is
// spent.
func benchTimed(ctx context.Context, w workload, seed int64, seconds int, dir string, ref map[string]string, res *result) error {
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-out", dir}
	var setup setupReport
	if err := spawn(ctx, &setup, append([]string{"-child", "setup"}, args...)...); err != nil {
		return err
	}
	var reps []repReport
	var lost []string
	start := time.Now()
	for {
		var rep repReport
		if err := spawn(ctx, &rep, append([]string{"-child", "rep"}, args...)...); err != nil {
			// A repetition that died counts every cell as failed; the
			// run goes on only if it has time left.
			lost = append(lost, err.Error())
			if ctx.Err() != nil {
				break
			}
		} else {
			reps = append(reps, rep)
		}
		// Start another repetition only if it should end within the
		// measuring time, so a run never measures much longer than asked
		// (the first repetition always runs).
		elapsed := time.Since(start)
		per := elapsed / time.Duration(len(reps)+len(lost))
		if elapsed+per > time.Duration(seconds)*time.Second {
			break
		}
	}
	if len(reps) == 0 {
		return fmt.Errorf("no repetition completed: %s", strings.Join(lost, "; "))
	}
	res.Reps = len(reps)
	res.Kernel = map[string]kernelTime{"setup": setup.Kernel}
	for i, r := range reps {
		res.Kernel[fmt.Sprintf("rep%d", i+1)] = r.Kernel
	}
	vals, series, outs, problems := timedMetrics(w, setup, reps, true)
	res.RepValues = series
	res.Unscaled, _, _, _ = timedMetrics(w, setup, reps, false)
	res.Attempted, res.Failed, res.Problems = checkCells(w, ref, outs, append(problems, lost...))
	res.Attempted += len(lost) * len(w.Cells)
	res.Failed += len(lost) * len(w.Cells)
	if w.Sweep {
		res.PaperGapPct = paperGapPct(vals["caba_speedup"])
	}
	var missing []string
	if res.Metrics, missing = emit(endToEnd, vals); len(missing) > 0 {
		res.Problems = append(res.Problems, "no value for "+strings.Join(missing, ", "))
	}
	return nil
}

// timedMetrics reduces the set-up timings and the repetitions to the
// end-to-end metrics, each the median over repetitions, plus the sweep's
// median CABA-BDI speedup. With scaled, the times are in reference-host
// seconds, each process's scaled by its own reference kernel time;
// without, in host seconds. It also returns the per-repetition values
// behind each median and every repetition's cells.
func timedMetrics(w workload, setup setupReport, reps []repReport, scaled bool) (map[string]float64, map[string][]float64, [][]outcome, []string) {
	scales := func(k kernelTime) (wall, cpu float64) {
		if !scaled {
			return 1, 1
		}
		return k.scales()
	}
	var problems []string
	pids := map[int]bool{}
	series := map[string][]float64{}
	setupScale, _ := scales(setup.Kernel)
	for _, t := range setup.TotalS {
		series["setup_s"] = append(series["setup_s"], t*setupScale)
	}
	outs := make([][]outcome, len(reps))
	n := float64(len(w.Cells))
	for i, r := range reps {
		if pids[r.Pid] {
			problems = append(problems, "two repetitions ran in one process")
		}
		pids[r.Pid] = true
		var instrs float64
		for _, o := range r.Cells {
			instrs += float64(o.Instrs)
		}
		wallScale, cpuScale := scales(r.Kernel)
		wall := r.WallS * wallScale
		for name, v := range map[string]float64{
			"cells_per_s":       n / wall,
			"cpu_s_per_cell":    r.CPUS * cpuScale / n,
			"sim_minstr_per_s":  instrs / wall / 1e6,
			"alloc_mb_per_cell": float64(r.AllocB) / n / 1e6,
			"peak_rss_mb":       r.RSSMB,
		} {
			series[name] = append(series[name], v)
		}
		if w.Sweep {
			series["caba_speedup"] = append(series["caba_speedup"], r.Speedup)
		}
		outs[i] = r.Cells
	}
	vals := make(map[string]float64, len(series))
	for name, vs := range series {
		vals[name] = median(vs)
	}
	return vals, series, outs, problems
}

// benchTraced measures the per-layer metrics. It runs three repetitions,
// each in a fresh process: the workload itself untraced (watching a
// sweep's cells complete), the replay untraced, and the replay traced.
// Every cell of all three must carry the same digest.
func benchTraced(ctx context.Context, w workload, seed int64, dir string, ref map[string]string, res *result) error {
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-out", dir}
	var plain, replay repReport
	if err := spawn(ctx, &plain, append([]string{"-child", "plain"}, args...)...); err != nil {
		return err
	}
	if err := spawn(ctx, &replay, append([]string{"-child", "replay"}, args...)...); err != nil {
		return err
	}
	var traced traceReport
	if err := spawn(ctx, &traced, append([]string{"-child", "trace"}, args...)...); err != nil {
		return err
	}
	res.Reps = 1
	if ref == nil {
		// No recorded digests for this seed: the untraced run is the
		// reference the replays must reproduce.
		ref = map[string]string{}
		for _, o := range plain.Cells {
			ref[o.Key] = o.Digest
		}
	}
	res.Attempted, res.Failed, res.Problems = checkCells(w, ref, [][]outcome{plain.Cells, replay.Cells, traced.Cells}, nil)
	if w.Sweep {
		res.PaperGapPct = paperGapPct(plain.Speedup)
	}
	m := layerMetrics(w, plain, replay, traced)
	var missing, scopedMissing []string
	res.Metrics, missing = emit(perLayer, m)
	res.Scoped, scopedMissing = emit(scopedFor(w.Name), m)
	if missing = append(missing, scopedMissing...); len(missing) > 0 {
		res.Problems = append(res.Problems, "no value for "+strings.Join(missing, ", "))
	}
	p := traced.Profile
	fmt.Printf("layer self-time shares over %d profile samples (spans in %s):\n", p.Samples, traced.Spans)
	for _, l := range sortedKeys(p.Shares) {
		fmt.Printf("  %-12s %6.1f%%\n", l, 100*p.Shares[l])
	}
	fmt.Println("Go map time by calling function (share of all samples):")
	callers := sortedKeys(p.MapCallers)
	sort.Slice(callers, func(i, j int) bool { return p.MapCallers[callers[i]] > p.MapCallers[callers[j]] })
	for _, fn := range callers[:min(len(callers), 3)] {
		fmt.Printf("  %6.1f%%  %s\n", 100*p.MapCallers[fn], fn)
	}
	return nil
}

// layerMetrics gathers a traced run's per-layer values: the traced
// replay's, the tracing overhead (traced replay against the same replay
// untraced), and for a sweep the scheduling figures of the real sweep.
func layerMetrics(w workload, plain, replay repReport, traced traceReport) map[string]float64 {
	m := make(map[string]float64, len(traced.Metrics)+3)
	for k, v := range traced.Metrics {
		m[k] = v
	}
	m["trace.overhead_pct"] = (traced.WallS - replay.WallS) / replay.WallS * 100
	if w.Sweep {
		m["experiments.slot_util"], m["experiments.tail_s"] = sweepFigures(plain)
	}
	return m
}

// checkCells counts attempted and failed cells over every run: a cell
// fails when it errored, is missing, or its digest differs from ref. With
// no reference digests, every run must agree with the first one.
func checkCells(w workload, ref map[string]string, runs [][]outcome, problems []string) (attempted, failed int, _ []string) {
	if ref == nil {
		ref = map[string]string{}
		for _, o := range runs[0] {
			ref[o.Key] = o.Digest
		}
	}
	for _, outs := range runs {
		byKey := make(map[string]outcome, len(outs))
		for _, o := range outs {
			byKey[o.Key] = o
		}
		for _, c := range w.Cells {
			attempted++
			o, ok := byKey[c.key()]
			switch {
			case !ok:
				failed++
				problems = append(problems, c.key()+": missing")
			case o.Err != "":
				failed++
				problems = append(problems, c.key()+": "+o.Err)
			case o.Digest != ref[c.key()]:
				failed++
				problems = append(problems, fmt.Sprintf("%s: digest %s, want %s", c.key(), o.Digest, ref[c.key()]))
			}
		}
	}
	return attempted, failed, problems
}

// report prints the human-readable summary, writes the full result under
// dir/results, and prints the final JSON line.
func report(res *result, dir string) error {
	m := res.Meta
	fmt.Printf("perfbench %s seed=%d trace=%d reps=%d | gomaxprocs=%d num_cpu=%d %s %s/%s cpu=%q\n",
		res.Workload, res.Seed, res.Trace, res.Reps, m.GOMAXPROCS, m.NumCPU, m.GoVersion, m.GOOS, m.GOARCH, m.CPUModel)
	if len(res.Kernel) > 0 {
		fmt.Printf("  reference kernel, mean ms per run (nominal %.4g ms):", refNominalS*1e3)
		for _, name := range sortedKeys(res.Kernel) {
			fmt.Printf(" %s %.4g", name, res.Kernel[name].WallS*1e3)
		}
		fmt.Println()
	}
	if res.Trace == 0 && res.Reps == 1 {
		fmt.Println("  one repetition fitted in the measuring time: each metric but setup_s is a single sample")
	}
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name]
		fmt.Printf("  %-30s %14.6g %-9s %s\n", name, v.Value, v.Unit, repList(res.RepValues[name]))
	}
	if len(res.Unscaled) > 0 {
		fmt.Println("  in host seconds, unscaled:")
		for _, name := range []string{"cells_per_s", "cpu_s_per_cell", "sim_minstr_per_s", "setup_s"} {
			fmt.Printf("  %-30s %14.6g\n", name, res.Unscaled[name])
		}
	}
	if len(res.Scoped) > 0 {
		fmt.Printf("  figures of %s only:\n", res.Workload)
		for _, name := range sortedKeys(res.Scoped) {
			v := res.Scoped[name]
			fmt.Printf("  %-30s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	fmt.Printf("  %-30s %14.6g (%d of %d cells)\n", "fail_ratio", res.FailRatio, res.Failed, res.Attempted)
	fmt.Printf("  %-30s %14.6g %% of the host's CPU time during the run\n", "steal_pct", res.StealPct)
	if res.PaperGapPct != 0 {
		fmt.Printf("  %-30s %14.6g %% (simulated; CABA-BDI geomean vs the paper's %.3fx)\n", "paper_gap_pct", res.PaperGapPct, paperCABASpeedup)
	}
	for _, p := range res.Problems {
		fmt.Println("  problem:", p)
	}
	rdir := filepath.Join(dir, "results")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(rdir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Println("  result:", path)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// repList renders the per-repetition values behind a median, or nothing
// for a single value.
func repList(vs []float64) string {
	if len(vs) < 2 {
		return ""
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return "reps: " + strings.Join(parts, " ")
}

// recordAll runs every workload once at recordedSeed and rewrites
// digests.json; the benchmark embeds it at its next build.
func recordAll(root, dir string) error {
	rec := recordedDigests{}
	for _, w := range allWorkloads() {
		var rep repReport
		err := spawn(context.Background(), &rep, "-child", "rep", "-workload", w.Name,
			"-seed", strconv.Itoa(recordedSeed), "-out", dir)
		if err != nil {
			return err
		}
		rec[w.Name] = map[string]string{}
		for _, o := range rep.Cells {
			if o.Err != "" {
				return fmt.Errorf("%s %s: %s", w.Name, o.Key, o.Err)
			}
			rec[w.Name][o.Key] = o.Digest
		}
		fmt.Fprintf(os.Stderr, "recorded %s: %d cells in %.1fs\n", w.Name, len(rep.Cells), rep.WallS)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "digests.json"), append(b, '\n'), 0o644)
}

// hostMeta identifies the host a result was measured on; results compare
// only when it matches.
type hostMeta struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func currentMeta() hostMeta {
	return hostMeta{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports ("unknown" where
// /proc/cpuinfo does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuJiffies returns the machine's cumulative stolen and total CPU time
// from /proc/stat, in clock ticks (zeros where it does not exist).
func cpuJiffies() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// compareResults prints two results side by side, metric by metric. It
// refuses results from different hosts, the hygiene rule that numbers
// only compare under matching meta.
func compareResults(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two result files: old new")
	}
	var rs [2]result
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := sameHost(rs[0], rs[1]); err != nil {
		return err
	}
	fmt.Printf("%-30s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, ms := range [2][2]map[string]metricValue{{rs[0].Metrics, rs[1].Metrics}, {rs[0].Scoped, rs[1].Scoped}} {
		for _, name := range sortedKeys(ms[0]) {
			a := ms[0][name]
			b, ok := ms[1][name]
			if !ok {
				continue
			}
			change := "n/a" // no relative change from a zero baseline
			if a.Value != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/math.Abs(a.Value))
			}
			fmt.Printf("%-30s %14.6g %14.6g %9s\n", name, a.Value, b.Value, change)
		}
	}
	return nil
}

// sameHost reports an error naming the differing host meta, if any.
func sameHost(a, b result) error {
	if a.Meta != b.Meta {
		return fmt.Errorf("refusing to compare: host meta differ (%+v vs %+v)", a.Meta, b.Meta)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s/trace=%d with %s/trace=%d", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
