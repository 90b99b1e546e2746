package main

import (
	"context"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
		for _, m := range want {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, m)
			}
			if seen[m.Name] {
				t.Errorf("%s: %s used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s: better is %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var scopedSpecs []metricSpec
	for _, s := range scoped {
		scopedSpecs = append(scopedSpecs, s.metricSpec)
		for _, w := range s.Workloads {
			if _, err := workloadByName(w); err != nil {
				t.Errorf("scoped %s: %v", s.Name, err)
			}
		}
	}
	check("scoped", scopedSpecs, scopedSpecs)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.Name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("workloads: BENCHMARK.json lists %v, the benchmark %v", declared, names)
	}
}

// TestTimedRunEmitsEveryMetric feeds the end-to-end reduction synthetic
// repetitions of every workload.
func TestTimedRunEmitsEveryMetric(t *testing.T) {
	for _, w := range allWorkloads() {
		k := kernelTime{WallS: 0.009, CPUS: 0.009, Runs: 40}
		reps := []repReport{{Pid: 1, WallS: 2, CPUS: 3, AllocB: 4e6, RSSMB: 50, Speedup: 0.9, Kernel: k}, {Pid: 2, WallS: 2.5, CPUS: 3, AllocB: 4e6, RSSMB: 52, Speedup: 0.9, Kernel: k}}
		for i := range reps {
			for _, c := range w.Cells {
				reps[i].Cells = append(reps[i].Cells, outcome{Key: c.key(), Digest: "d", Instrs: 1000})
			}
		}
		vals, series, outs, problems := timedMetrics(w, setupReport{TotalS: []float64{0.1, 0.2, 0.15}, Kernel: kernelTime{WallS: 0.011, CPUS: 0.01, Runs: 64}}, reps, true)
		if len(problems) > 0 || len(outs) != 2 {
			t.Errorf("%s: problems %v, %d runs", w.Name, problems, len(outs))
		}
		for _, m := range endToEnd {
			if want := map[bool]int{true: 3, false: 2}[m.Name == "setup_s"]; len(series[m.Name]) != want {
				t.Errorf("%s: %s has %d per-repetition values, want %d", w.Name, m.Name, len(series[m.Name]), want)
			}
		}
		if _, missing := emit(endToEnd, vals); len(missing) > 0 {
			t.Errorf("%s: no value for %v", w.Name, missing)
		}
		for name, v := range vals {
			if v == 0 {
				t.Errorf("%s: %s reads 0", w.Name, name)
			}
		}
	}
}

// TestTimedMetricsScale checks that each process's reference kernel time
// scales that process's wall and CPU times, and nothing else.
func TestTimedMetricsScale(t *testing.T) {
	w, err := workloadByName("assist-decomp")
	if err != nil {
		t.Fatal(err)
	}
	reps := []repReport{
		{Pid: 1, WallS: 2, CPUS: 3, AllocB: 4e6, RSSMB: 50, Kernel: kernelTime{WallS: 2 * refNominalS, CPUS: 4 * refNominalS, Runs: 40}},
		{Pid: 2, WallS: 1, CPUS: 1.5, AllocB: 4e6, RSSMB: 50, Kernel: kernelTime{WallS: refNominalS, CPUS: 2 * refNominalS, Runs: 40}},
		{Pid: 3, WallS: 4, CPUS: 6, AllocB: 4e6, RSSMB: 50, Kernel: kernelTime{WallS: 4 * refNominalS, CPUS: 8 * refNominalS, Runs: 40}},
	}
	for i := range reps {
		for _, c := range w.Cells {
			reps[i].Cells = append(reps[i].Cells, outcome{Key: c.key(), Digest: "d", Instrs: 1000})
		}
	}
	setup := setupReport{TotalS: []float64{0.1, 0.2, 0.15}, Kernel: kernelTime{WallS: 2 * refNominalS, CPUS: 2 * refNominalS, Runs: 64}}
	host, _, _, _ := timedMetrics(w, setup, reps, false)
	ref, series, _, _ := timedMetrics(w, setup, reps, true)
	// Every repetition ran the same work at a different host speed, so
	// scaled they agree: 1 s of wall time and 0.75 CPU-s for 4 cells.
	for name, want := range map[string]float64{
		"cells_per_s":       4,
		"sim_minstr_per_s":  4 * 1000 / 1e6,
		"cpu_s_per_cell":    0.75 / 4,
		"setup_s":           0.075,
		"alloc_mb_per_cell": host["alloc_mb_per_cell"],
		"peak_rss_mb":       host["peak_rss_mb"],
	} {
		if math.Abs(ref[name]-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s: %v scaled, want %v", name, ref[name], want)
		}
	}
	if v := series["cells_per_s"]; len(v) != 3 || v[0] != v[1] || v[1] != v[2] {
		t.Errorf("cells_per_s per repetition %v, want three equal values", v)
	}
	if host["cells_per_s"] != 2 {
		t.Errorf("unscaled cells_per_s %v, want the median host rate 2", host["cells_per_s"])
	}
	reps[0].Kernel = kernelTime{}
	if vals, _, _, _ := timedMetrics(w, setup, reps[:1], true); !math.IsNaN(vals["cells_per_s"]) {
		t.Errorf("a repetition with no kernel runs scaled to %v, want NaN (missing)", vals["cells_per_s"])
	}
}

// TestTracedRunEmitsEveryMetric runs the traced replay of every workload,
// and the watched sweep of fig7-sweep (about two minutes in all). It
// checks that the replays reproduce the recorded digests, that every
// per-layer metric has a value other than 0 on every workload, and that
// each scoped figure has a value exactly on the workloads it is listed
// for: elsewhere, what it counts is absent.
func TestTracedRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var rec recordedDigests
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads() {
		rep, err := childTrace(w, recordedSeed, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		runs := [][]outcome{rep.Cells}
		var plain repReport
		if w.Sweep {
			if plain, err = childRep(w, recordedSeed, t.TempDir(), true); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if len(plain.Ends) != len(w.Cells) {
				t.Errorf("%s: watched %d cell completions, want %d", w.Name, len(plain.Ends), len(w.Cells))
			}
			runs = append(runs, plain.Cells)
		}
		if _, failed, problems := checkCells(w, rec[w.Name], runs, nil); failed > 0 {
			t.Errorf("%s: %v", w.Name, problems)
		}
		// A stand-in for the untraced replay, 1% faster than the traced one.
		m := layerMetrics(w, plain, repReport{WallS: rep.WallS / 1.01}, rep)
		vals, missing := emit(perLayer, m)
		if len(missing) > 0 {
			t.Errorf("%s: no value for %v", w.Name, missing)
		}
		for name, v := range vals {
			if v.Value == 0 {
				t.Errorf("%s: %s reads 0", w.Name, name)
			}
		}
		if _, missing := emit(scopedFor(w.Name), m); len(missing) > 0 {
			t.Errorf("%s: no value for scoped %v", w.Name, missing)
		}
		// Elsewhere a scoped figure counts nothing: it is absent, 0, or a
		// CPU share of a stray sample or two.
		for _, s := range scoped {
			if v, ok := m[s.Name]; !slices.Contains(s.Workloads, w.Name) && ok && v > 1e-3 {
				t.Errorf("%s: %s reads %v here, but is not listed for this workload", w.Name, s.Name, v)
			}
		}
		if rep.Profile.Samples == 0 {
			t.Errorf("%s: empty CPU profile", w.Name)
		}
	}
}

// TestWatchCompletions writes cell records into a checkpoint-like file
// and checks that each is seen once, after it was written, and that a
// record still being written is not counted.
func TestWatchCompletions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	start := time.Now()
	stop := watchCompletions(path, start)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	write := func(s string) {
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"meta":{"scale":0.1}}` + "\n")
	var written []float64
	for _, key := range []string{"a/Base@1x", "b/Base@1x", "c/Base@1x"} {
		time.Sleep(20 * time.Millisecond)
		written = append(written, time.Since(start).Seconds())
		write(`{"key":"` + key + `","result":{}}` + "\n")
	}
	write(`{"key":"d/Base@1x","res`)
	time.Sleep(20 * time.Millisecond)
	ends := stop()
	if len(ends) != len(written) {
		t.Fatalf("saw %d completions, want %d: %v", len(ends), len(written), ends)
	}
	for i, e := range ends {
		if e < written[i] || (i+1 < len(written) && e > written[i+1]) {
			t.Errorf("completion %d seen at %.3fs, written at %.3fs", i, e, written[i])
		}
	}
}

func TestSweepFigures(t *testing.T) {
	util, tail := sweepFigures(repReport{WallS: 10, CPUS: 18, Parallel: 2, Ends: []float64{1, 4, 8, 9.5}})
	if util != 0.9 || tail != 1.5 {
		t.Errorf("util %v tail %v, want 0.9 and 1.5", util, tail)
	}
	if _, tail := sweepFigures(repReport{WallS: 10, CPUS: 18, Parallel: 2, Ends: []float64{1}}); !math.IsNaN(tail) {
		t.Errorf("tail of one completion with two slots is %v, want NaN", tail)
	}
}

func TestDigestCatchesPerturbedResult(t *testing.T) {
	w, err := workloadByName("assist-usecase")
	if err != nil {
		t.Fatal(err)
	}
	c := w.Cells[0] // STRD/CABA-Prefetch, the shortest cell
	r, err := runCell(context.Background(), w.config(), c, recordedSeed)
	if err != nil {
		t.Fatal(err)
	}
	var rec recordedDigests
	if err := json.Unmarshal(digestsJSON, &rec); err != nil {
		t.Fatal(err)
	}
	one := workload{Name: w.Name, Cells: []cell{c}}
	ref := map[string]string{c.key(): rec[w.Name][c.key()]}
	if _, failed, problems := checkCells(one, ref, [][]outcome{{outcomeOf(c.key(), r, nil)}}, nil); failed != 0 {
		t.Fatalf("unperturbed result fails the check: %v", problems)
	}
	for name, perturb := range map[string]func(){
		"cycles":        func() { r.Cycles++ },
		"stats counter": func() { r.Stats.L2Hits++ },
		"use-case":      func() { r.Stats.PrefetchUseful++ },
	} {
		perturb()
		if _, failed, _ := checkCells(one, ref, [][]outcome{{outcomeOf(c.key(), r, nil)}}, nil); failed != 1 {
			t.Errorf("perturbed %s passes the digest check", name)
		}
	}
}

func TestSweepRunsOncePerProcess(t *testing.T) {
	prev := sweepRan.Swap(true)
	defer sweepRan.Store(prev)
	w, err := workloadByName("fig7-sweep")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSweep(w, 1, t.TempDir(), false); err == nil {
		t.Fatal("a second sweep in one process was allowed")
	}
}

func TestLayerMapCoversModule(t *testing.T) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != ".." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel("..", filepath.Dir(path))
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			pkgs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("found only %d packages", len(pkgs))
	}
	for p := range pkgs {
		fn := modulePath + "/" + p + ".F"
		if p == "" {
			fn = modulePath + ".F"
		}
		if l := layerOf(fn); l == "other" {
			t.Errorf("package %q has no layer in moduleLayers", p)
		}
	}
	for fn, want := range map[string]string{
		"runtime.mapaccess2_fast64":                    "go.map",
		"internal/runtime/maps.(*Map).getWithKeySmall": "go.map",
		"runtime.memhash64":                            "go.map",
		"runtime.scanobject":                           "go.gc",
		"runtime.gcDrain":                              "go.gc",
		"runtime.futex":                                "go.sched",
		"runtime.chanrecv":                             "go.sched",
		"runtime.findRunnable":                         "go.sched",
		"runtime.mallocgc":                             "go.runtime",
		"main.replayCell":                              "bench",
		"github.com/caba-sim/caba/internal/core.(*Store).MustGet": "core",
		"github.com/caba-sim/caba.RunContext":                     "caba",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := result{Workload: "fig7-sweep", Meta: currentMeta()}
	b := a
	if err := sameHost(a, b); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	b.Meta.GOMAXPROCS++
	if err := sameHost(a, b); err == nil {
		t.Fatal("results with different gomaxprocs compared")
	}
	b = a
	b.Meta.CPUModel = "other"
	if err := sameHost(a, b); err == nil {
		t.Fatal("results with different CPU models compared")
	}
}
