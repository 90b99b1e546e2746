package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/core"
	"github.com/caba-sim/caba/internal/workloads"
)

// The standalone layer drivers time one layer alone on the workload's own
// data: the codecs and the assist-warp routines over lines of the
// prepared input. Each loops until minDriverTime has passed, so the
// per-line figures average over many passes. The event queue has no
// driver of its own: timing.ns_per_event comes from the profiled replay,
// so it measures the queue on the workload's real events.

const (
	// inputLinesPerApp caps how much of each app's prepared input the
	// drivers read (64 KiB per app).
	inputLinesPerApp = 1024
	// coreLines caps the lines the assist-warp routine drivers run over:
	// each line executes a whole routine in the functional ISA model.
	coreLines     = 1024
	minDriverTime = 150 * time.Millisecond
)

// inputSample reads the first lines of an app's prepared input from the
// simulator's memory, before the kernel runs.
func inputSample(p *prepared) []byte {
	n := min(p.inst.InBytes, inputLinesPerApp*compress.LineSize)
	n -= n % compress.LineSize
	buf := make([]byte, n)
	p.sim.Mem.Read(workloads.InBase, buf)
	return buf
}

// lines splits data into cache lines.
func lines(data []byte) [][]byte {
	out := make([][]byte, 0, len(data)/compress.LineSize)
	for off := 0; off+compress.LineSize <= len(data); off += compress.LineSize {
		out = append(out, data[off:off+compress.LineSize])
	}
	return out
}

// repeatFor calls pass until at least minDriverTime has elapsed and
// returns the mean time per item, given items per pass.
func repeatFor(items int, pass func() error) (float64, error) {
	if items == 0 {
		return 0, nil
	}
	var done int
	start := time.Now()
	for done == 0 || time.Since(start) < minDriverTime {
		if err := pass(); err != nil {
			return 0, err
		}
		done += items
	}
	return float64(time.Since(start).Nanoseconds()) / float64(done), nil
}

// codecCost times each compressor over the lines and measures the input's
// BDI compression ratio.
func codecCost(data []byte) (ns map[compress.AlgID]float64, ratio float64, err error) {
	ls := lines(data)
	ns = map[compress.AlgID]float64{}
	for _, alg := range []compress.AlgID{compress.AlgBDI, compress.AlgFPC, compress.AlgCPack} {
		ns[alg], err = repeatFor(len(ls), func() error {
			for _, l := range ls {
				if _, err := compress.Compress(alg, l); err != nil {
					return fmt.Errorf("compress %v: %w", alg, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
	}
	ratio, err = compress.MeasureRatio(compress.AlgBDI, data)
	return ns, ratio, err
}

// assistCost times the assist-warp routines functionally: decompression
// of every line some codec compresses (checking the output against the
// raw line), and the CABA BDI compression pass over every line.
func assistCost(data []byte) (decompNs, compNs float64, err error) {
	ls := lines(data)
	if len(ls) > coreLines {
		stride := len(ls) / coreLines
		picked := make([][]byte, 0, coreLines)
		for i := 0; i < len(ls) && len(picked) < coreLines; i += stride {
			picked = append(picked, ls[i])
		}
		ls = picked
	}
	type pair struct {
		raw []byte
		c   compress.Compressed
	}
	var comp []pair
	for _, l := range ls {
		for _, alg := range []compress.AlgID{compress.AlgBDI, compress.AlgFPC, compress.AlgCPack} {
			c, err := compress.Compress(alg, l)
			if err != nil {
				return 0, 0, err
			}
			if c.Alg != compress.AlgNone {
				comp = append(comp, pair{l, c})
				break
			}
		}
	}
	store := core.BuildLibrary()
	decompNs, err = repeatFor(len(comp), func() error {
		for _, p := range comp {
			out, _, err := core.RunDecompression(store, p.c)
			if err != nil {
				return fmt.Errorf("assist decompression: %w", err)
			}
			if !bytes.Equal(out, p.raw) {
				return fmt.Errorf("assist decompression of a %v line does not reproduce it", p.c.Alg)
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	compNs, err = repeatFor(len(ls), func() error {
		for _, l := range ls {
			if _, err := core.RunCompression(store, compress.AlgBDI, l); err != nil {
				return fmt.Errorf("assist compression: %w", err)
			}
		}
		return nil
	})
	return decompNs, compNs, err
}
