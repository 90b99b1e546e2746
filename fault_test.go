package caba_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/faults"
)

// faultConfig is a small CABA run with bit-flip, metadata-corruption and
// response-delay injection active. Response DROPS are deliberately absent
// here: they wedge warps by design and belong to the wedge tests below.
func faultConfig(smWorkers int) caba.Config {
	cfg := caba.Baseline()
	cfg.Scale = 0.03
	cfg.SMWorkers = smWorkers
	cfg.Faults = faults.Config{
		Seed:              42,
		BitFlipRate:       0.05,
		MDCorruptRate:     0.02,
		ResponseDelayRate: 0.01,
	}
	return cfg
}

// TestFaultInjectionDeterminism: the same fault seed and config must
// produce the identical fault campaign — same injected/detected/recovered
// counts and bit-identical statistics — regardless of how many SM-tick
// workers run the simulation.
func TestFaultInjectionDeterminism(t *testing.T) {
	workerCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerCounts = append(workerCounts, n)
	}
	var ref *caba.Result
	for _, w := range workerCounts {
		res, err := caba.Run(faultConfig(w), caba.CABABDI, "PVC", 1)
		if err != nil {
			t.Fatalf("SMWorkers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			if res.FaultsInjected == 0 {
				t.Fatal("no faults injected; the campaign config is not exercising the sites")
			}
			if res.FaultsDetected == 0 || res.FaultsRecovered == 0 {
				t.Fatalf("faults injected (%d) but detected=%d recovered=%d",
					res.FaultsInjected, res.FaultsDetected, res.FaultsRecovered)
			}
			t.Logf("campaign: %d injected, %d detected, %d recovered",
				res.FaultsInjected, res.FaultsDetected, res.FaultsRecovered)
			continue
		}
		if res.FaultsInjected != ref.FaultsInjected ||
			res.FaultsDetected != ref.FaultsDetected ||
			res.FaultsRecovered != ref.FaultsRecovered {
			t.Errorf("SMWorkers=%d: campaign diverged: injected %d/%d detected %d/%d recovered %d/%d",
				w, res.FaultsInjected, ref.FaultsInjected,
				res.FaultsDetected, ref.FaultsDetected,
				res.FaultsRecovered, ref.FaultsRecovered)
		}
		for _, d := range ref.Stats.Diff(res.Stats) {
			t.Errorf("SMWorkers=%d: stats diverge: %s", w, d)
		}
	}
}

// TestDroppedResponsesWedge: with every memory response dropped, the
// waiting warps can never make progress. The wedge detector must convert
// the would-be infinite hang into a structured error — under parallel
// ticking too — rather than spinning to the cycle limit.
func TestDroppedResponsesWedge(t *testing.T) {
	for _, w := range []int{1, 4} {
		cfg := faultConfig(w)
		cfg.Faults = faults.Config{Seed: 7, ResponseDropRate: 1.0}
		_, err := caba.Run(cfg, caba.Base, "PVC", 1)
		if err == nil {
			t.Fatalf("SMWorkers=%d: run completed despite dropping every response", w)
		}
		if !strings.Contains(err.Error(), "wedged") {
			t.Fatalf("SMWorkers=%d: err = %v, want a wedge diagnosis", w, err)
		}
		if !strings.Contains(err.Error(), "dropped") {
			t.Errorf("SMWorkers=%d: err = %v, want it to count dropped responses", w, err)
		}
	}
}

// TestWedgeErrorDeterminism: the wedge diagnosis itself is part of the
// determinism contract — same seed, same error, same cycle, at any
// worker count and with the fast-forward engine on or off.
func TestWedgeErrorDeterminism(t *testing.T) {
	msg := func(w int, ff bool) string {
		cfg := faultConfig(w)
		cfg.FastForward = ff
		cfg.Faults = faults.Config{Seed: 7, ResponseDropRate: 0.5}
		_, err := caba.Run(cfg, caba.Base, "PVC", 1)
		if err == nil {
			t.Fatalf("SMWorkers=%d ff=%v: expected a wedge", w, ff)
		}
		return err.Error()
	}
	ref := msg(1, false)
	for _, v := range []struct {
		w  int
		ff bool
	}{{4, false}, {1, true}, {4, true}} {
		if got := msg(v.w, v.ff); got != ref {
			t.Errorf("wedge error differs at SMWorkers=%d ff=%v:\n  ref %s\n  got %s", v.w, v.ff, ref, got)
		}
	}
}

// TestRunContextDeadline: a context deadline interrupts a run and the
// error wraps both the context cause and ErrInterrupted.
func TestRunContextDeadline(t *testing.T) {
	cfg := caba.Baseline()
	cfg.Scale = 0.05
	cfg.SMWorkers = 1
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := caba.RunContext(ctx, cfg, caba.CABABDI, "PVC", 1)
	if err == nil {
		t.Fatal("run completed despite a 1ms deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, caba.ErrInterrupted) {
		t.Fatalf("err = %v, want DeadlineExceeded wrapping ErrInterrupted", err)
	}
}
