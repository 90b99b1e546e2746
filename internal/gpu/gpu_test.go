package gpu

import (
	"testing"

	"github.com/caba-sim/caba/internal/compress"
	"github.com/caba-sim/caba/internal/config"
	"github.com/caba-sim/caba/internal/isa"
	"github.com/caba-sim/caba/internal/stats"
)

// vecScaleKernel: out[gtid] = in[gtid]*3 + 1.
func vecScaleKernel() *isa.Program {
	return isa.MustAssemble("vecscale", `
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, %p0
  ld.global.u32 r2, [r1]
  mul r2, r2, 3
  add r2, r2, 1
  add r3, r0, %p1
  st.global.u32 [r3], r2
  exit`)
}

// streamSumKernel: each thread sums iters elements strided by %p2 bytes
// starting at in+gtid*4, storing into out[gtid]. Fully coalesced,
// memory-bound.
func streamSumKernel() *isa.Program {
	return isa.MustAssemble("streamsum", `
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, %p0
  movi r2, 0
  movi r3, 0
loop:
  ld.global.u32 r4, [r1]
  add r2, r2, r4
  add r1, r1, %p2
  add r3, r3, 1
  setp.lt p0, r3, %p3
  @p0 bra loop
  add r5, r0, %p1
  st.global.u32 [r5], r2
  exit`)
}

// sfuChainKernel: a dependent chain of SFU ops, compute-bound.
func sfuChainKernel() *isa.Program {
	return isa.MustAssemble("sfuchain", `
  mov r0, %gtid
  movi r1, 0
loop:
  sfu r0, r0
  sfu r0, r0
  add r1, r1, 1
  setp.lt p0, r1, %p3
  @p0 bra loop
  shl r2, %gtid, 2
  add r2, r2, %p1
  st.global.u32 [r2], r0
  exit`)
}

// streamSum4Kernel is the software-pipelined variant: four independent
// loads per iteration give the memory-level parallelism a real compiler
// would schedule.
func streamSum4Kernel() *isa.Program {
	return isa.MustAssemble("streamsum4", `
  mov r0, %gtid
  shl r0, r0, 2
  add r1, r0, %p0
  movi r2, 0
  movi r3, 0
loop:
  ld.global.u32 r4, [r1]
  add r1, r1, %p2
  ld.global.u32 r5, [r1]
  add r1, r1, %p2
  ld.global.u32 r6, [r1]
  add r1, r1, %p2
  ld.global.u32 r7, [r1]
  add r1, r1, %p2
  add r2, r2, r4
  add r2, r2, r5
  add r2, r2, r6
  add r2, r2, r7
  add r3, r3, 4
  setp.lt p0, r3, %p3
  @p0 bra loop
  add r5, r0, %p1
  st.global.u32 [r5], r2
  exit`)
}

const (
	inBase  = 0x1000_0000
	outBase = 0x2000_0000
)

// fillInput writes n compressible (low-dynamic-range) u32 values.
func fillInput(sim *Simulator, n int, compressible bool) {
	for i := 0; i < n; i++ {
		v := uint64(i % 64)
		if !compressible {
			v = uint64(i)*2654435761 + 12345 // noisy
		}
		sim.Mem.WriteU(inBase+uint64(i*4), v&0xFFFFFFFF, 4)
	}
}

func newSim(t *testing.T, design config.Design, prog *isa.Program, ctas, ctaThreads int, params [4]uint64) *Simulator {
	t.Helper()
	cfg := config.TestConfig()
	k := &Kernel{Prog: prog, GridCTAs: ctas, CTAThreads: ctaThreads, Params: params}
	sim, err := New(&cfg, design, k)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestVecScaleFunctional(t *testing.T) {
	n := 256
	sim := newSim(t, config.DesignBase, vecScaleKernel(), 4, 64, [4]uint64{inBase, outBase})
	fillInput(sim, n, false)
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		in := sim.Mem.ReadU(inBase+uint64(i*4), 4)
		want := (in*3 + 1) & 0xFFFFFFFF
		if got := sim.Mem.ReadU(outBase+uint64(i*4), 4); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	if sim.S.WarpInstrs == 0 || sim.S.Cycles == 0 {
		t.Error("no work recorded")
	}
	if sim.S.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
}

func TestStreamSumFunctional(t *testing.T) {
	threads, iters := 256, 16
	stride := uint64(threads * 4)
	sim := newSim(t, config.DesignBase, streamSumKernel(), 4, 64,
		[4]uint64{inBase, outBase, stride, uint64(iters)})
	fillInput(sim, threads*iters, true)
	if err := sim.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < threads; tid++ {
		var want uint64
		for i := 0; i < iters; i++ {
			want += sim.Mem.ReadU(inBase+uint64(tid*4)+uint64(i)*stride, 4)
		}
		got := sim.Mem.ReadU(outBase+uint64(tid*4), 4)
		if got != want&0xFFFFFFFF {
			t.Fatalf("sum[%d] = %d, want %d", tid, got, want)
		}
	}
}

func TestStallBreakdownMemoryBound(t *testing.T) {
	threads, iters := 512, 64
	sim := newSim(t, config.DesignBase, streamSumKernel(), 8, 64,
		[4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)})
	fillInput(sim, threads*iters, false)
	if err := sim.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	br := sim.S.IssueBreakdown()
	memStalls := br[stats.MemoryStall] + br[stats.DataDepStall]
	if memStalls < 0.3 {
		t.Errorf("memory-bound kernel: mem+dep stalls = %.2f, want > 0.3 (breakdown: %v)", memStalls, br)
	}
	if br[stats.Active] > 0.6 {
		t.Errorf("memory-bound kernel should not be mostly active: %v", br)
	}
}

func TestStallBreakdownComputeBound(t *testing.T) {
	sim := newSim(t, config.DesignBase, sfuChainKernel(), 8, 64,
		[4]uint64{0, outBase, 0, 64})
	if err := sim.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	br := sim.S.IssueBreakdown()
	comp := br[stats.ComputeStall] + br[stats.DataDepStall]
	if comp < 0.3 {
		t.Errorf("compute-bound kernel: compute+dep = %.2f, want > 0.3 (%v)", comp, br)
	}
	if br[stats.MemoryStall] > 0.2 {
		t.Errorf("compute-bound kernel should not be memory stalled: %v", br)
	}
}

func TestBandwidthSensitivity(t *testing.T) {
	run := func(bw float64) uint64 {
		cfg := config.TestConfig()
		cfg.BWScale = bw
		threads, iters := 512, 32
		k := &Kernel{Prog: streamSumKernel(), GridCTAs: 8, CTAThreads: 64,
			Params: [4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)}}
		sim, err := New(&cfg, config.DesignBase, k)
		if err != nil {
			t.Fatal(err)
		}
		fillInput(sim, threads*iters, false)
		if err := sim.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return sim.Cycles()
	}
	half, full, dbl := run(0.5), run(1.0), run(2.0)
	if !(half > full && full > dbl) {
		t.Errorf("cycles at 0.5x/1x/2x BW = %d/%d/%d; must decrease with bandwidth", half, full, dbl)
	}
}

func TestCABABDICompressedRun(t *testing.T) {
	// Bandwidth-bound regime: pipelined loads, plenty of warps, starved
	// bandwidth — the configuration the paper targets.
	threads, iters := 3072, 16
	mkSim := func(design config.Design) *Simulator {
		cfg := config.TestConfig()
		cfg.BWScale = 0.25
		cfg.MaxWarpsPerSM = 24
		cfg.MaxThreadsPerSM = 768
		k := &Kernel{Prog: streamSum4Kernel(), GridCTAs: 12, CTAThreads: 256,
			Params: [4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)}}
		sim, err := New(&cfg, design, k)
		if err != nil {
			t.Fatal(err)
		}
		fillInput(sim, threads*iters, true) // compressible
		if design.Compressing() {
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		if err := sim.Run(20_000_000); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	base := mkSim(config.DesignBase)
	caba := mkSim(config.DesignCABABDI)

	// Functional equivalence.
	for tid := 0; tid < threads; tid += 37 {
		b := base.Mem.ReadU(outBase+uint64(tid*4), 4)
		c := caba.Mem.ReadU(outBase+uint64(tid*4), 4)
		if b != c {
			t.Fatalf("out[%d]: base %d vs caba %d", tid, b, c)
		}
	}
	// Assist warps ran and their outputs matched the backing store.
	if caba.S.LinesDecompressed == 0 {
		t.Error("no decompression assist warps ran")
	}
	if caba.S.AssistInstrs == 0 {
		t.Error("no assist instructions issued")
	}
	if caba.DecompMismatches() != 0 {
		t.Errorf("%d decompression mismatches", caba.DecompMismatches())
	}
	// Bandwidth: compressed run must move fewer DRAM bursts.
	if caba.S.DRAMBursts >= base.S.DRAMBursts {
		t.Errorf("CABA bursts %d >= base bursts %d", caba.S.DRAMBursts, base.S.DRAMBursts)
	}
	// And it should be faster on this bandwidth-bound kernel.
	if caba.Cycles() >= base.Cycles() {
		t.Errorf("CABA (%d cycles) not faster than base (%d) on compressible bandwidth-bound kernel",
			caba.Cycles(), base.Cycles())
	}
	if caba.S.Ratio.Value() < 1.5 {
		t.Errorf("compression ratio = %.2f, want > 1.5", caba.S.Ratio.Value())
	}
}

func TestAllDesignsRunAndAgree(t *testing.T) {
	threads, iters := 256, 16
	designs := []config.Design{
		config.DesignBase, config.DesignHWBDIMem, config.DesignHWBDI,
		config.DesignCABABDI, config.DesignIdealBDI,
		config.DesignCABAFPC, config.DesignCABACPack, config.DesignCABABest,
		config.CacheCompressed("L1", 2), config.CacheCompressed("L2", 4),
	}
	var ref []uint64
	for _, d := range designs {
		sim := newSim(t, d, streamSumKernel(), 4, 64,
			[4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)})
		fillInput(sim, threads*iters, true)
		if d.Compressing() {
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		var out []uint64
		for tid := 0; tid < threads; tid += 17 {
			out = append(out, sim.Mem.ReadU(outBase+uint64(tid*4), 4))
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("%s: output %d = %d differs from base %d", d.Name, i, out[i], ref[i])
			}
		}
	}
}

func TestIdealAtLeastAsFastAsCABA(t *testing.T) {
	threads, iters := 512, 32
	run := func(d config.Design) uint64 {
		sim := newSim(t, d, streamSumKernel(), 8, 64,
			[4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)})
		fillInput(sim, threads*iters, true)
		if d.Compressing() {
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return sim.Cycles()
	}
	caba := run(config.DesignCABABDI)
	ideal := run(config.DesignIdealBDI)
	// Allow the paper's observed slack (CABA can sometimes edge out Ideal
	// via cache-pollution side effects, Section 6.1), but not by much.
	if float64(ideal) > float64(caba)*1.05 {
		t.Errorf("Ideal (%d) much slower than CABA (%d)?", ideal, caba)
	}
}

func TestStoreCompressionPath(t *testing.T) {
	// vecScale writes compressible outputs: the store path must compress.
	n := 512
	sim := newSim(t, config.DesignCABABDI, vecScaleKernel(), 8, 64, [4]uint64{inBase, outBase})
	fillInput(sim, n, true)
	sim.Dom.Precompress(inBase, uint64(n*4))
	if err := sim.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if sim.S.LinesCompressed == 0 {
		t.Error("no compression assist warps completed")
	}
	// Output lines must be recorded compressed in the domain.
	compressed := 0
	for off := uint64(0); off < uint64(n*4); off += compress.LineSize {
		if sim.Dom.State(outBase + off).IsCompressed() {
			compressed++
		}
	}
	if compressed == 0 {
		t.Error("no output lines stored compressed")
	}
}

func TestBarrierKernel(t *testing.T) {
	// Stage values through shared memory across a barrier: thread i reads
	// what thread (i+1)%n wrote.
	prog := isa.MustAssemble("shswap", `
  mov r0, %tid
  shl r1, r0, 2
  st.shared.u32 [r1], r0
  bar
  add r2, r0, 1
  setp.ge p0, r2, %ntid
  @p0 movi r2, 0
  shl r2, r2, 2
  ld.shared.u32 r3, [r2]
  mov r4, %gtid
  shl r4, r4, 2
  add r4, r4, %p1
  st.global.u32 [r4], r3
  exit`)
	cfg := config.TestConfig()
	k := &Kernel{Prog: prog, GridCTAs: 2, CTAThreads: 64, SharedMem: 256, Params: [4]uint64{0, outBase}}
	sim, err := New(&cfg, config.DesignBase, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 128; g++ {
		tid := g % 64
		want := uint64((tid + 1) % 64)
		if got := sim.Mem.ReadU(outBase+uint64(g*4), 4); got != want {
			t.Fatalf("out[%d] = %d, want %d", g, got, want)
		}
	}
}

func TestAtomicKernel(t *testing.T) {
	prog := isa.MustAssemble("atom", `
  movi r0, 1
  mov r1, %p0
  atom.add.u32 r2, [r1], r0
  exit`)
	cfg := config.TestConfig()
	k := &Kernel{Prog: prog, GridCTAs: 4, CTAThreads: 64, Params: [4]uint64{outBase}}
	sim, err := New(&cfg, config.DesignBase, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := sim.Mem.ReadU(outBase, 4); got != 256 {
		t.Errorf("counter = %d, want 256", got)
	}
}

func TestOccupancyCalculation(t *testing.T) {
	cfg := config.Baseline()
	k := &Kernel{Prog: vecScaleKernel(), GridCTAs: 100, CTAThreads: 192}
	occ := ComputeOccupancy(&cfg, k, 0)
	// 192 threads x 6 warps/CTA: limited by the 8-block limit (8x192 =
	// 1536 threads exactly).
	if occ.CTAsPerSM != 8 {
		t.Errorf("CTAs = %d (%s), want 8", occ.CTAsPerSM, occ.LimitedBy)
	}
	if occ.ThreadsPerSM != 1536 {
		t.Errorf("threads = %d", occ.ThreadsPerSM)
	}
	// vecscale uses 4 registers: 8 CTAs x 6 warps x 32 x 4 = 6144 of
	// 32768 -> ~81% unallocated (register-light kernel).
	if occ.UnallocatedRegs < 0.5 {
		t.Errorf("unallocated = %.2f; register-light kernel should leave most of the RF idle", occ.UnallocatedRegs)
	}
	// Reserving assist registers reduces occupancy for heavy kernels.
	heavy := &Kernel{Prog: &isa.Program{Name: "h", NumReg: 40, Code: vecScaleKernel().Code}, GridCTAs: 10, CTAThreads: 512}
	o1 := ComputeOccupancy(&cfg, heavy, 0)
	o2 := ComputeOccupancy(&cfg, heavy, 24)
	if o2.CTAsPerSM > o1.CTAsPerSM {
		t.Error("assist register reservation cannot increase occupancy")
	}
	if o2.RegsAllocated <= o1.RegsAllocated && o2.CTAsPerSM == o1.CTAsPerSM {
		t.Error("assist registers must be accounted")
	}
}

func TestOccupancyThreadLimited(t *testing.T) {
	cfg := config.Baseline()
	k := &Kernel{Prog: vecScaleKernel(), GridCTAs: 10, CTAThreads: 512}
	occ := ComputeOccupancy(&cfg, k, 0)
	if occ.CTAsPerSM != 3 || occ.LimitedBy != "thread limit" {
		t.Errorf("CTAs = %d (%s), want 3 (thread limit)", occ.CTAsPerSM, occ.LimitedBy)
	}
}

func TestKernelValidation(t *testing.T) {
	cfg := config.TestConfig()
	bad := []*Kernel{
		{Prog: nil, GridCTAs: 1, CTAThreads: 32},
		{Prog: vecScaleKernel(), GridCTAs: 0, CTAThreads: 32},
		{Prog: vecScaleKernel(), GridCTAs: 1, CTAThreads: 0},
		{Prog: vecScaleKernel(), GridCTAs: 1, CTAThreads: 32, SharedMem: 1 << 30},
	}
	for i, k := range bad {
		if _, err := New(&cfg, config.DesignBase, k); err == nil {
			t.Errorf("kernel %d should fail validation", i)
		}
	}
}

func TestMDCacheHitRateHigh(t *testing.T) {
	threads, iters := 512, 32
	sim := newSim(t, config.DesignCABABDI, streamSumKernel(), 8, 64,
		[4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)})
	fillInput(sim, threads*iters, true)
	sim.Dom.Precompress(inBase, uint64(threads*iters*4))
	if err := sim.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if hr := sim.S.MDHitRate(); hr < 0.8 {
		t.Errorf("MD cache hit rate = %.2f, want > 0.8 for streaming (Section 4.3.2)", hr)
	}
}

func TestIncompressibleDataNoHarm(t *testing.T) {
	// Incompressible data: CABA should neither break nor help much. The
	// run is long enough that the fixed assist-warp drain tail amortizes
	// (a few failed compression chains before the adaptive disable).
	threads, iters := 1024, 64
	run := func(d config.Design) *Simulator {
		sim := newSim(t, d, streamSumKernel(), 16, 64,
			[4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)})
		fillInput(sim, threads*iters, false)
		if d.Compressing() {
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	base := run(config.DesignBase)
	caba := run(config.DesignCABABDI)
	slowdown := float64(caba.Cycles()) / float64(base.Cycles())
	if slowdown > 1.15 {
		t.Errorf("CABA on incompressible data is %.2fx slower than base", slowdown)
	}
}

func TestL1CapacityModeHoldsMoreLines(t *testing.T) {
	// Figure 13 mechanism check: with 2x tags and compressible lines the
	// L1 hit rate should not decrease versus the baseline L1.
	threads, iters := 512, 32
	run := func(d config.Design) *Simulator {
		sim := newSim(t, d, streamSumKernel(), 8, 64,
			[4]uint64{inBase, outBase, uint64(threads * 4), uint64(iters)})
		fillInput(sim, threads*iters, true)
		if d.Compressing() {
			sim.Dom.Precompress(inBase, uint64(threads*iters*4))
		}
		if err := sim.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	plain := run(config.DesignCABABDI)
	l1x2 := run(config.CacheCompressed("L1", 2))
	if l1x2.S.L1HitRate()+0.02 < plain.S.L1HitRate() {
		t.Errorf("L1 2x-tag hit rate %.3f below baseline %.3f",
			l1x2.S.L1HitRate(), plain.S.L1HitRate())
	}
}

func TestPartialStoreRMWOnCompressedLine(t *testing.T) {
	// A kernel that writes one word per cache line (sparse update) into a
	// precompressed region: Section 4.2.2's worst case — the line must be
	// fetched (and decompressed) before the merged writeback.
	prog := isa.MustAssemble("sparse", `
  mov r0, %gtid
  shl r0, r0, 7          ; one thread per 128B line
  add r1, r0, %p0
  movi r2, 7
  st.global.u32 [r1], r2
  exit`)
	cfg := config.TestConfig()
	k := &Kernel{Prog: prog, GridCTAs: 2, CTAThreads: 64, Params: [4]uint64{inBase}}
	sim, err := New(&cfg, config.DesignCABABDI, k)
	if err != nil {
		t.Fatal(err)
	}
	// Compressible content in the target region.
	for i := 0; i < 128*128/4; i++ {
		sim.Mem.WriteU(inBase+uint64(i*4), uint64(i%16), 4)
	}
	sim.Dom.Precompress(inBase, 128*128)
	if err := sim.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	// Functional: word 0 of each line overwritten, word 1 preserved.
	for tid := 0; tid < 128; tid++ {
		la := inBase + uint64(tid*128)
		if got := sim.Mem.ReadU(la, 4); got != 7 {
			t.Fatalf("line %d word 0 = %d, want 7", tid, got)
		}
		want := uint64((tid*32 + 1) % 16)
		if got := sim.Mem.ReadU(la+4, 4); got != want {
			t.Fatalf("line %d word 1 = %d, want %d (must survive the partial write)", tid, got, want)
		}
	}
	// The partial writes forced read-modify-write fetches (decompressions).
	if sim.S.LinesDecompressed == 0 {
		t.Error("partial writes to compressed lines must decompress first")
	}
}

func TestStoreBufferOverflowReleasesRaw(t *testing.T) {
	// Scatter stores across many more lines than the store buffer holds:
	// overflow must release lines uncompressed rather than stall.
	prog := isa.MustAssemble("scatter", `
  mov r0, %gtid
  shl r0, r0, 7
  add r1, r0, %p0
  mov r2, %gtid
  st.global.u32 [r1], r2
  st.global.u32 [r1+64], r2
  exit`)
	cfg := config.TestConfig()
	k := &Kernel{Prog: prog, GridCTAs: 4, CTAThreads: 64, Params: [4]uint64{outBase}}
	sim, err := New(&cfg, config.DesignCABABDI, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if sim.S.StoreBufferFlushes == 0 {
		t.Error("256 scattered store lines must overflow the 16-entry buffer")
	}
	for tid := 0; tid < 256; tid += 31 {
		if got := sim.Mem.ReadU(outBase+uint64(tid*128), 4); got != uint64(tid) {
			t.Fatalf("out[%d] = %d", tid, got)
		}
	}
}
