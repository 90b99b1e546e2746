package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// The benchmark's host is a share of a larger machine whose speed
// changes: on the 2-vCPU KVM guest the baseline was measured on, the same
// repetition ran 1.9x faster in one half hour than in the next, with
// hypervisor steal near 0 throughout and CPU seconds moving by the same
// factor as wall seconds; at other times steal rose to 5-13% for minutes.
// Each measuring child process therefore also times a fixed reference
// kernel, the benchmark's own code, in bursts between the pieces of work
// it times: before each cell and after the last, or before and after a
// sweep or the set-up passes. It scales the times it measured by how much
// slower or faster than nominal the kernel ran in that process, which
// gives reference-host seconds: the time the work would have taken had
// the kernel run at refNominalS. A change to the simulator moves only the
// work measured; a change of the host's speed moves the kernel too.
//
// The kernel is one dependent chain of integer operations with a
// data-dependent branch, so it runs at the speed of the core's clock and
// nothing else. Of the kernels tried on the baseline host, it alone
// tracked the simulator: over 30 alternating runs of a one-second cell
// and a kernel burst, the cell's time varied by 4.9% (standard deviation
// of its log) and the cell's time over the kernel's by 3.5%. Kernels with
// a table the size of L2, Go map lookups or four independent chains
// varied more than the cell, and made the quotient vary by 5.8-10.5%.
//
// The bursts run in the measuring process, between its cells, so that
// they meet the steal its cells meet: bursts run by the parent process
// between the children missed a minute of 5-7% steal that slowed the
// children by 15%. The scale is the kernel's mean run time over every
// burst of the process, not a median: a host that pauses the machine now
// and then (a CPU quota, say) slows a fraction of the runs by a lot, and
// only the mean charges the kernel its share of the pauses.

// refNominalS is a round figure near the kernel's mean run time on the
// host the baseline in README.md was recorded on, at its slower speed
// (9-11 ms). It only sets the scale the metrics are reported on.
const refNominalS = 0.01

// refIters is the number of steps of one kernel run.
const refIters = 2_750_000

// Kernel runs per burst: between cells, about 80 ms; around a sweep or
// the set-up passes, about a third of a second.
const (
	cellBurst  = 8
	outerBurst = 32
)

// refSink keeps the kernel's result live.
var refSink uint64

// refRun does the kernel's fixed work.
func refRun() {
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			x += 11
		}
	}
	refSink += x
}

// calibration gathers the kernel's run times in one process.
type calibration struct {
	walls, cpus []float64
}

// burst runs the kernel n times, noting each run's wall seconds and the
// CPU seconds of the thread that ran it.
func (c *calibration) burst(n int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for range n {
		cpu0 := threadCPU()
		start := time.Now()
		refRun()
		c.walls = append(c.walls, time.Since(start).Seconds())
		c.cpus = append(c.cpus, threadCPU()-cpu0)
	}
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// threadCPU returns the calling thread's user+sys CPU seconds (NaN if the
// kernel will not say, so the scale reads missing rather than wrong).
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// kernelTime is the kernel's mean wall and CPU seconds per run over Runs
// runs in one process.
type kernelTime struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	Runs  int     `json:"runs"`
}

func (c *calibration) mean() kernelTime {
	k := kernelTime{Runs: len(c.walls)}
	for i := range c.walls {
		k.WallS += c.walls[i]
		k.CPUS += c.cpus[i]
	}
	k.WallS /= float64(k.Runs)
	k.CPUS /= float64(k.Runs)
	return k
}

// scales returns the factors that turn the process's wall and CPU seconds
// into reference-host seconds: nominal over the kernel's mean (NaN, so
// the metrics are reported missing, when the kernel never ran).
func (k kernelTime) scales() (wall, cpu float64) {
	if k.Runs == 0 {
		return math.NaN(), math.NaN()
	}
	return ratio(refNominalS, k.WallS), ratio(refNominalS, k.CPUS)
}
