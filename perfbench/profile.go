package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is bucketed by the package of each sample's innermost
// function (its self time) into layers. Layers are named by module
// package; the Go runtime's map, garbage-collector and scheduler work get
// buckets of their own, because routine-store lookups and the SM pool's
// handoffs show up there rather than in the packages that cause them.

const modulePath = "github.com/caba-sim/caba"

// moduleLayers assigns every package of the module, by path relative to
// the module root, to a layer. TestLayerMapCoversModule walks the module
// and fails when a package is missing, so a new package cannot fall
// silently into "other".
var moduleLayers = map[string]string{
	"":                     "caba",
	"experiments":          "experiments",
	"internal/audit":       "audit",
	"internal/compress":    "compress",
	"internal/config":      "config",
	"internal/core":        "core",
	"internal/energy":      "energy",
	"internal/farm":        "farm",
	"internal/faults":      "faults",
	"internal/gpu":         "gpu",
	"internal/isa":         "isa",
	"internal/mem":         "mem",
	"internal/obs":         "obs",
	"internal/snapshot":    "snapshot",
	"internal/stats":       "stats",
	"internal/timing":      "timing",
	"internal/workloads":   "workloads",
	"cmd/cabasim":          "cmd",
	"cmd/compress":         "cmd",
	"cmd/experiments":      "cmd",
	"cmd/farmd":            "cmd",
	"cmd/farmworker":       "cmd",
	"scripts/lintdoc":      "cmd",
	"examples/compression": "examples",
	"examples/memoization": "examples",
	"examples/prefetch":    "examples",
	"examples/quickstart":  "examples",
	"perfbench":            "bench",
}

// Runtime buckets, matched by function-name prefix on the runtime's own
// functions.
var (
	mapPrefixes = []string{
		"internal/runtime/maps.", "runtime.map", "runtime.memhash", "runtime.aeshash",
		"runtime.strhash", "runtime.interhash", "runtime.nilinterhash", "runtime.typehash",
		"runtime.f32hash", "runtime.f64hash", "runtime.c64hash", "runtime.c128hash",
	}
	gcPrefixes = []string{
		"runtime.gc", "runtime.scan", "runtime.markroot", "runtime.greyobject", "runtime.findObject",
		"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*gcBits)", "runtime.bgsweep",
		"runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.typePointers", "runtime.(*mspan).typePointers",
		"runtime.(*typePointers)", "runtime.spanOf", "runtime.heapBits", "runtime.(*mspan).heapBits",
		"runtime.markBits", "runtime.(*markBits)", "runtime.bgscavenge", "runtime.(*scavenger",
		"runtime.(*pageAlloc).scav", "runtime.stopTheWorld", "runtime.startTheWorld",
		"runtime.forEachP", "runtime.(*mheap).nextSpanForSweep", "runtime.pageIndexOf",
	}
	schedPrefixes = []string{
		"runtime.futex", "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark", "runtime.runq", "runtime.globrunq",
		"runtime.stealWork", "runtime.checkTimers", "runtime.usleep", "runtime.osyield", "runtime.procyield",
		"runtime.lock", "runtime.unlock", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.send", "runtime.recv", "runtime.mcall", "runtime.gogo", "runtime.execute",
		"runtime.casgstatus", "runtime.gosched", "runtime.goschedImpl", "runtime.semasleep",
		"runtime.semawakeup", "runtime.netpoll", "runtime.resetspinning", "runtime.pidle",
		"runtime.injectglist", "runtime.acquirep", "runtime.releasep", "runtime.handoffp",
		"runtime.entersyscall", "runtime.exitsyscall", "runtime.retake", "runtime.sysmon",
		"runtime.mstart", "runtime.newproc", "runtime.goexit", "runtime.(*timers)",
		"runtime.semacquire", "runtime.semrelease", "runtime.(*waitq)", "runtime.(*semaRoot)",
		"sync.runtime_Sem", "sync.(*WaitGroup)", "runtime.stealOrder",
	}
)

// layerOf names the layer a function's self time belongs to.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main":
		return "bench"
	case pkg == modulePath || strings.HasPrefix(pkg, modulePath+"/"):
		if l, ok := moduleLayers[strings.TrimPrefix(strings.TrimPrefix(pkg, modulePath), "/")]; ok {
			return l
		}
		return "other"
	case hasAnyPrefix(fn, mapPrefixes):
		return "go.map"
	case pkg == "runtime" && hasAnyPrefix(fn, gcPrefixes):
		return "go.gc"
	case hasAnyPrefix(fn, schedPrefixes):
		return "go.sched"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/"):
		return "go.runtime"
	}
	return "std"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcPackage extracts the package path from a fully qualified function
// name such as "github.com/caba-sim/caba/internal/gpu.(*SM).tick".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profileSplit is a CPU profile bucketed by layer.
type profileSplit struct {
	// Shares is each layer's share of all samples, by the layer of each
	// sample's innermost function.
	Shares map[string]float64 `json:"shares"`
	// MapCallers is, for samples spent in Go map code, the share of all
	// samples by the nearest calling function of the module.
	MapCallers map[string]float64 `json:"map_callers"`
	Samples    int64              `json:"samples"`
}

// splitProfile decodes a gzipped pprof CPU profile and buckets it.
func splitProfile(profile []byte) (profileSplit, error) {
	split := profileSplit{Shares: map[string]float64{}, MapCallers: map[string]float64{}}
	stacks, err := decodeStacks(profile)
	if err != nil {
		return split, err
	}
	for _, st := range stacks {
		split.Samples += st.count
	}
	if split.Samples == 0 {
		return split, nil
	}
	for _, st := range stacks {
		share := float64(st.count) / float64(split.Samples)
		leaf := layerOf(st.frames[0])
		split.Shares[leaf] += share
		if leaf != "go.map" {
			continue
		}
		for _, fn := range st.frames[1:] {
			if l := layerOf(fn); !strings.HasPrefix(l, "go.") && l != "std" {
				split.MapCallers[fn] += share
				break
			}
		}
	}
	return split, nil
}

// stack is one profile sample: its frames, innermost first, and count.
type stack struct {
	frames []string
	count  int64
}

// decodeStacks decodes the profile.proto fields it needs: samples (their
// locations and sample count), locations (their functions, inlined ones
// first), functions (name) and the string table.
func decodeStacks(profile []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{}
		funcName  = map[uint64]int64{}
		strtab    []string
		decodeErr error
	)
	err = fields(raw, func(num int, v uint64, b []byte) {
		switch num {
		case 2: // sample
			var s sample
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, b []byte) {
				switch n {
				case 1: // location_id, leaf first
					s.locs = append(s.locs, varints(v, b)...)
				case 2: // value: [samples, cpu-ns]
					if vals := varints(v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, b []byte) {
				switch n {
				case 1:
					id = v
				case 4: // line: inlined callees come before their callers
					decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, _ []byte) {
						if n == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "unknown"
				if idx, ok := funcName[fn]; ok && idx >= 0 && int(idx) < len(strtab) {
					name = strtab[idx]
				}
				st.frames = append(st.frames, name)
			}
		}
		if len(st.frames) == 0 {
			st.frames = []string{"unknown"}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and its varint value or length-delimited bytes (b is nil for varints).
func fields(msg []byte, fn func(num int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(num, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			fn(num, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated integer field's values, whether it arrived
// packed (b non-nil) or as one unpacked varint.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
