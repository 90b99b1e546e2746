package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/experiments"
)

// sweepRan guards the one-sweep-per-process rule. experiments.Study789
// memoizes the Figure 7/8/9 study by (scale, seed), so a second Fig7 call
// in the same process would return in ~0 s without simulating anything
// and fake a gain. Every sweep repetition therefore runs in a fresh child
// process, and runSweep refuses to run twice.
var sweepRan atomic.Bool

// checkpointLine mirrors one record of the sweep's JSONL checkpoint file:
// a header with meta, then one line per completed cell.
type checkpointLine struct {
	Key    string       `json:"key"`
	Result *caba.Result `json:"result"`
}

// sweepRun is one run of the Figure 7 sweep.
type sweepRun struct {
	cells []outcome
	// speedup is the CABA-BDI geomean speedup over Base (NaN when the
	// study could not compute it).
	speedup float64
	// ends are the cells' completion times in seconds from the sweep's
	// start (nil unless watched), and parallel the Parallel it ran with.
	ends     []float64
	parallel int
}

// runSweep runs the Figure 7 sweep once through experiments.Fig7 and
// returns one outcome per cell plus the CABA-BDI geomean speedup. The
// sweep's checkpoint file is the only public place the sweep leaves every
// cell's full Result; snapshots are pushed past any cell's end so none is
// taken. With watch, a goroutine also notes when each cell lands in that
// file, which is when the sweep completed it.
func runSweep(w workload, seed int64, dir string, watch bool) (sweepRun, error) {
	run := sweepRun{parallel: runtime.NumCPU(), speedup: math.NaN()}
	if sweepRan.Swap(true) {
		return run, errors.New("experiments.Fig7 already ran in this process: its study cache would answer without simulating")
	}
	ckpt := filepath.Join(dir, fmt.Sprintf("sweep-%d.jsonl", os.Getpid()))
	os.Remove(ckpt)
	defer os.RemoveAll(ckpt + ".d")
	defer os.Remove(ckpt)
	var stopWatch func() []float64
	if watch {
		stopWatch = watchCompletions(ckpt, time.Now())
	}
	study, sweepErr := experiments.Fig7(experiments.Options{
		Scale:           w.Scale,
		Seed:            seed,
		Parallel:        run.parallel,
		Checkpoint:      ckpt,
		CheckpointEvery: 1 << 60,
		RunTimeout:      cellTimeout,
	})
	if stopWatch != nil {
		run.ends = stopWatch()
	}
	results, err := readCheckpoint(ckpt)
	if err != nil {
		return run, err
	}
	if len(results) > len(w.Cells) {
		return run, fmt.Errorf("sweep produced %d cells, the workload lists %d", len(results), len(w.Cells))
	}
	run.cells = make([]outcome, len(w.Cells))
	for i, c := range w.Cells {
		r, ok := results[c.key()]
		if !ok {
			cellErr := errors.New("cell missing from the sweep's results")
			if sweepErr != nil {
				cellErr = fmt.Errorf("cell missing from the sweep's results: %v", sweepErr)
			}
			run.cells[i] = outcomeOf(c.key(), nil, cellErr)
			continue
		}
		run.cells[i] = outcomeOf(c.key(), r, nil)
	}
	if study != nil {
		run.speedup = study.CABASpeedup()
	}
	return run, nil
}

// watchPoll is how often watchCompletions looks at the checkpoint file;
// a cell of the sweep runs for a third of a second on average.
const watchPoll = 2 * time.Millisecond

// watchCompletions polls the sweep's checkpoint file at path and notes
// the time since start at which each cell record appears in it. The
// returned stop function ends the polling, reads what is left, and
// returns the times in the order the cells landed.
func watchCompletions(path string, start time.Time) (stop func() []float64) {
	var (
		ends []float64
		off  int64
		f    *os.File
	)
	scan := func() {
		if f == nil {
			var err error
			if f, err = os.Open(path); err != nil {
				return // the sweep has not created it yet
			}
		}
		fi, err := f.Stat()
		if err != nil || fi.Size() <= off {
			return
		}
		buf := make([]byte, fi.Size()-off)
		n, _ := f.ReadAt(buf, off)
		now := time.Since(start).Seconds()
		buf = buf[:n]
		for {
			i := bytes.IndexByte(buf, '\n')
			if i < 0 {
				break // a record still being written
			}
			var l struct {
				Key string `json:"key"`
			}
			if json.Unmarshal(buf[:i], &l) == nil && l.Key != "" {
				ends = append(ends, now)
			}
			off += int64(i + 1)
			buf = buf[i+1:]
		}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(watchPoll)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				scan()
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		scan()
		if f != nil {
			f.Close()
		}
		return ends
	}
}

// sweepFigures derives the sweep's scheduling figures from a watched
// repetition: slot utilization, the sweep's CPU seconds over Parallel
// times its wall seconds (each cell runs one SM worker, so a busy slot is
// a busy core), and the tail, from the moment fewer than Parallel cells
// remained in flight (the Parallel-th last completion) to the last
// completion.
func sweepFigures(rep repReport) (util, tail float64) {
	util = ratio(rep.CPUS, float64(rep.Parallel)*rep.WallS)
	tail = math.NaN()
	if n := len(rep.Ends); rep.Parallel > 0 && n >= rep.Parallel {
		tail = rep.Ends[n-1] - rep.Ends[n-rep.Parallel]
	}
	return util, tail
}

// readCheckpoint loads every cell of a sweep checkpoint, keyed
// "app/design" (the file's keys carry a bandwidth suffix, always "@1x"
// for Figure 7).
func readCheckpoint(path string) (map[string]*caba.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading sweep checkpoint: %w", err)
	}
	defer f.Close()
	out := map[string]*caba.Result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var l checkpointLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("sweep checkpoint: %w", err)
		}
		if l.Key == "" || l.Result == nil {
			continue
		}
		key, ok := strings.CutSuffix(l.Key, "@1x")
		if !ok {
			return nil, fmt.Errorf("sweep checkpoint: unexpected cell %q", l.Key)
		}
		out[key] = l.Result
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep checkpoint: %w", err)
	}
	return out, nil
}

// paperGapPct is the distance of a CABA-BDI geomean speedup from the
// paper's, as a percentage of the paper's.
func paperGapPct(speedup float64) float64 {
	return math.Abs(speedup-paperCABASpeedup) / paperCABASpeedup * 100
}
