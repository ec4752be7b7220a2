package measure

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pmevo/internal/cachestore"
	"pmevo/internal/cachetable"
	"pmevo/internal/exp"
	"pmevo/internal/isa"
	"pmevo/internal/machine"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

func TestDefaultPoolSizes(t *testing.T) {
	x86 := DefaultPoolSizes(isa.SyntheticX86())
	arm := DefaultPoolSizes(isa.SyntheticARM())
	if x86.GPR >= arm.GPR {
		t.Errorf("x86 GPR pool %d should be smaller than ARM %d", x86.GPR, arm.GPR)
	}
	if x86.MemOffsets < 1 || arm.MemOffsets < 1 {
		t.Error("memory offsets must be positive")
	}
}

func TestNewAllocatorRejectsTinyPools(t *testing.T) {
	if _, err := NewAllocator(PoolSizes{GPR: 1, Vec: 4, FPR: 4, MemOffsets: 4}); err == nil {
		t.Error("tiny GPR pool accepted")
	}
	if _, err := NewAllocator(PoolSizes{GPR: 4, Vec: 4, FPR: 4, MemOffsets: 0}); err == nil {
		t.Error("zero mem offsets accepted")
	}
}

// TestAllocatorAvoidsImmediateReuse verifies the core §4.2 property: a
// register written by one instruction is not read by the next few
// instructions (dependency distance is maximized).
func TestAllocatorAvoidsImmediateReuse(t *testing.T) {
	x86 := isa.SyntheticX86()
	f, ok := x86.FormByName("add_r64_r64")
	if !ok {
		t.Fatal("add_r64_r64 missing")
	}
	alloc, err := NewAllocator(PoolSizes{GPR: 12, Vec: 14, FPR: 14, MemOffsets: 8})
	if err != nil {
		t.Fatal(err)
	}
	var seq []*isa.Form
	for i := 0; i < 24; i++ {
		seq = append(seq, f)
	}
	insts, err := alloc.InstantiateSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	// add r, r is read-write on operand 0, read on operand 1. Track the
	// writer of each register and check the read distance.
	lastWriter := map[int]int{}
	minDist := len(insts)
	for i, in := range insts {
		for j, op := range in.Operands {
			spec := in.Form.Operands[j]
			if spec.Read {
				if w, ok := lastWriter[op.Reg]; ok {
					if d := i - w; d < minDist {
						minDist = d
					}
				}
			}
		}
		for j, op := range in.Operands {
			if in.Form.Operands[j].Write {
				lastWriter[op.Reg] = i
			}
		}
	}
	// With a 12-register pool and 2 registers per instruction, the
	// dependency distance should be at least ~5 instructions.
	if minDist < 5 {
		t.Errorf("minimum read-after-write distance = %d, want >= 5", minDist)
	}
}

func TestAllocatorDistinctOperandsWithinInstruction(t *testing.T) {
	arm := isa.SyntheticARM()
	f, ok := arm.FormByName("add_r64_r64_r64")
	if !ok {
		t.Fatal("add_r64_r64_r64 missing")
	}
	alloc, _ := NewAllocator(DefaultPoolSizes(arm))
	for i := 0; i < 10; i++ {
		in, err := alloc.Instantiate(f)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, op := range in.Operands {
			if op.Kind == isa.KindReg {
				if seen[op.Reg] {
					t.Fatalf("instruction %d reuses register %d across operands", i, op.Reg)
				}
				seen[op.Reg] = true
			}
		}
	}
}

func TestAllocatorRotatesMemOffsets(t *testing.T) {
	x86 := isa.SyntheticX86()
	f, ok := x86.FormByName("mov_r64_m64")
	if !ok {
		t.Fatal("mov_r64_m64 missing")
	}
	alloc, _ := NewAllocator(PoolSizes{GPR: 12, Vec: 14, FPR: 14, MemOffsets: 4})
	offsets := map[int]int{}
	for i := 0; i < 8; i++ {
		in, err := alloc.Instantiate(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range in.Operands {
			if op.Kind == isa.KindMem {
				offsets[op.Offset]++
			}
		}
	}
	if len(offsets) != 4 {
		t.Errorf("used %d distinct offsets, want 4", len(offsets))
	}
	for off, n := range offsets {
		if n != 2 {
			t.Errorf("offset %d used %d times, want 2 (round robin)", off, n)
		}
	}
}

func TestToMachineInstMapsMemory(t *testing.T) {
	x86 := isa.SyntheticX86()
	load, _ := x86.FormByName("mov_r64_m64")
	store, _ := x86.FormByName("mov_m64_r64")
	alloc, _ := NewAllocator(DefaultPoolSizes(x86))
	li, err := alloc.Instantiate(load)
	if err != nil {
		t.Fatal(err)
	}
	si, err := alloc.Instantiate(store)
	if err != nil {
		t.Fatal(err)
	}
	lm := ToMachineInst(li)
	sm := ToMachineInst(si)
	// Load: reads base pointer and the offset pseudo-register.
	readsBase := false
	readsPseudo := false
	for _, r := range lm.Reads {
		if r == basePtrID {
			readsBase = true
		}
		if r >= memBase && r < basePtrID {
			readsPseudo = true
		}
	}
	if !readsBase || !readsPseudo {
		t.Errorf("load reads = %v; want base pointer and mem pseudo-reg", lm.Reads)
	}
	// Store: writes the offset pseudo-register.
	writesPseudo := false
	for _, w := range sm.Writes {
		if w >= memBase && w < basePtrID {
			writesPseudo = true
		}
	}
	if !writesPseudo {
		t.Errorf("store writes = %v; want mem pseudo-reg", sm.Writes)
	}
}

func TestHarnessOptionsValidation(t *testing.T) {
	proc := uarch.SKL()
	bad := []Options{
		{UnrollLength: 0, Repetitions: 1, MeasureIters: 10},
		{UnrollLength: 50, Repetitions: 0, MeasureIters: 10},
		{UnrollLength: 50, Repetitions: 1, MeasureIters: 0},
		{UnrollLength: 50, Repetitions: 1, MeasureIters: 10, WarmupIters: -1},
	}
	for i, o := range bad {
		if _, err := NewHarness(proc, o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestBuildLoopUnrolls(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	g, _ := proc.ISA.FormByName("imul_r64_r64")
	e := portmap.Experiment{{Inst: f.ID, Count: 1}, {Inst: g.ID, Count: 1}}
	body, instances, err := h.BuildLoop(e)
	if err != nil {
		t.Fatal(err)
	}
	if instances != 25 {
		t.Errorf("instances = %d, want 25 (50/2)", instances)
	}
	if len(body) != 50 {
		t.Errorf("body length = %d, want 50", len(body))
	}
	if _, _, err := h.BuildLoop(nil); err == nil {
		t.Error("empty experiment accepted")
	}
	if _, _, err := h.BuildLoop(portmap.Experiment{{Inst: 99999, Count: 1}}); err == nil {
		t.Error("out-of-range instruction accepted")
	}
}

// TestMeasureMatchesModelSingleALU is the end-to-end sanity check: a
// dependency-free ALU experiment on SKL must measure close to the
// LP-model prediction under the ground truth.
func TestMeasureMatchesModelSingleALU(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0 // deterministic
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	e := portmap.Experiment{{Inst: f.ID, Count: 1}}
	got, err := h.Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	want := throughput.OfExperiment(proc.GroundTruth, e) // 1/4 cycle: 4 ALU ports
	if math.Abs(got-want) > 0.08 {
		t.Errorf("measured %g, model %g", got, want)
	}
}

func TestMeasurePairConflict(t *testing.T) {
	// Two shift instructions (p06 only) must measure ~1 cycle for the
	// pair (2 µops / 2 ports); a shift and a shuffle (p5) are disjoint
	// and must measure ~0.5+0.5 in parallel = max(0.5, 0.5)... per
	// experiment instance: masses p06:1, p5:1 → throughput 1? No:
	// Q={P0,P6}: 1/2; Q={P5}: 1 → 1. Both cases hand-checked below.
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	shl, _ := proc.ISA.FormByName("shl_r64_i8")
	shr, _ := proc.ISA.FormByName("shr_r64_i8")
	e := portmap.Experiment{{Inst: shl.ID, Count: 1}, {Inst: shr.ID, Count: 1}}
	got, err := h.Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	want := throughput.OfExperiment(proc.GroundTruth, e) // 2 µops on p06 → 1.0
	if math.Abs(want-1.0) > 1e-9 {
		t.Fatalf("model says %g, hand calculation says 1.0", want)
	}
	if math.Abs(got-want) > 0.12 {
		t.Errorf("measured %g, model %g", got, want)
	}
}

func TestMeasureNoiseAndMedian(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	opts.NoiseSigma = 0.02
	opts.Repetitions = 7
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := proc.ISA.FormByName("add_r64_r64")
	e := portmap.Experiment{{Inst: f.ID, Count: 1}}
	want := throughput.OfExperiment(proc.GroundTruth, e)
	got, err := h.Measure(e)
	if err != nil {
		t.Fatal(err)
	}
	// The median of 7 draws with 2% noise must stay within ~8%.
	if math.Abs(got-want)/want > 0.08 {
		t.Errorf("noisy measurement %g deviates too far from %g", got, want)
	}
}

func TestMeasureAllAndAccounting(t *testing.T) {
	proc := uarch.A72()
	opts := DefaultOptions()
	opts.Repetitions = 3
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := proc.ISA.Form(0)
	g := proc.ISA.Form(1)
	es := []portmap.Experiment{
		{{Inst: f.ID, Count: 1}},
		{{Inst: g.ID, Count: 1}},
		{{Inst: f.ID, Count: 1}, {Inst: g.ID, Count: 1}},
	}
	tps, err := h.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	if len(tps) != 3 {
		t.Fatalf("got %d throughputs", len(tps))
	}
	for i, tp := range tps {
		if tp <= 0 {
			t.Errorf("experiment %d: non-positive throughput %g", i, tp)
		}
	}
	if h.Measurements() != 3 {
		t.Errorf("Measurements = %d, want 3", h.Measurements())
	}
	cost := h.SimulatedBenchmarkingCost()
	wantCost := 3 * (opts.CompileOverheadS + 3*opts.LoopTimeMS/1000)
	if math.Abs(cost-wantCost) > 1e-9 {
		t.Errorf("SimulatedBenchmarkingCost = %g, want %g", cost, wantCost)
	}
}

func TestLoopBound(t *testing.T) {
	proc := uarch.SKL() // 3.4 GHz
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 10 ms at 3.4 GHz = 34e6 cycles; at 17 cycles/iter → 2e6 iterations.
	if got := h.LoopBound(17); got != 2_000_000 {
		t.Errorf("LoopBound(17) = %d, want 2000000", got)
	}
	if got := h.LoopBound(0); got != 1 {
		t.Errorf("LoopBound(0) = %d, want 1", got)
	}
}

func TestEmitCX86(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultOptions()
	h, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	ld, _ := proc.ISA.FormByName("mov_r64_m64")
	e := portmap.Experiment{{Inst: add.ID, Count: 1}, {Inst: ld.ID, Count: 1}}
	prog, err := h.EmitProgram(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gettimeofday(&start, NULL);",
		"gettimeofday(&end, NULL);",
		"__asm__ volatile(",
		"add %r", // an x86 add on a GPR
		"(%r15)", // memory operand via base pointer
		"3.4",    // frequency in the throughput formula
		"for (long i = 0; i < loop_bound; i++)",
	} {
		if !strings.Contains(prog, want) {
			t.Errorf("emitted C missing %q:\n%s", want, prog)
		}
	}
}

func TestEmitCARM(t *testing.T) {
	proc := uarch.A72()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	add, ok := proc.ISA.FormByName("add_r64_r64_r64")
	if !ok {
		t.Fatal("add_r64_r64_r64 missing")
	}
	prog, err := h.EmitProgram(portmap.Experiment{{Inst: add.ID, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog, "add x") {
		t.Errorf("ARM program should use xN registers:\n%s", prog)
	}
	if !strings.Contains(prog, "x28") {
		t.Errorf("ARM program should use the x28 base pointer:\n%s", prog)
	}
}

func TestRenderAsmVariants(t *testing.T) {
	x86 := isa.SyntheticX86()
	alloc, _ := NewAllocator(DefaultPoolSizes(x86))
	vadd, _ := x86.FormByName("vaddps_v256_v256_v256")
	in, err := alloc.Instantiate(vadd)
	if err != nil {
		t.Fatal(err)
	}
	s := RenderAsm("x86-64", in)
	if !strings.Contains(s, "ymm") {
		t.Errorf("256-bit operand should render as ymm: %q", s)
	}
	shl, _ := x86.FormByName("shl_r64_i8")
	in2, _ := alloc.Instantiate(shl)
	s2 := RenderAsm("x86-64", in2)
	if !strings.Contains(s2, "$") {
		t.Errorf("immediate should render with $: %q", s2)
	}
}

// TestMeasureAllMatchesSequentialMeasure pins the parallelization
// contract of MeasureAll: fanning the simulations out over all cores
// must leave the results bit-identical to sequential Measure calls,
// because noise is drawn in experiment order either way.
func TestMeasureAllMatchesSequentialMeasure(t *testing.T) {
	proc := uarch.SKL()
	es := []portmap.Experiment{}
	for i := 0; i < 12; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1 + i%3}})
	}
	seq, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, e := range es {
		tp, err := seq.Measure(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tp)
	}
	par, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: MeasureAll %g != Measure %g", i, got[i], want[i])
		}
	}
	if par.Measurements() != seq.Measurements() {
		t.Errorf("accounting diverged: %d vs %d", par.Measurements(), seq.Measurements())
	}
}

// TestMeasureAllKernelCacheBitExact is the fixed-seed golden test of the
// kernel-simulation cache: MeasureAll over an experiment list with
// count-scaled aliases and literal repeats must produce bit-identical
// outputs with the cache enabled and disabled (the cache sits below the
// noise layer, which draws per measurement in experiment order either
// way).
func TestMeasureAllKernelCacheBitExact(t *testing.T) {
	proc := uarch.SKL()
	var es []portmap.Experiment
	for i := 0; i < 8; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 2}}) // body-aliases the singleton
	}
	es = append(es, es[0], es[1]) // literal repeats
	opts := DefaultOptions()
	opts.Seed = 42

	cached, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}

	optsOff := opts
	optsOff.SimCache = nil
	plain, err := NewHarness(proc, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}

	// Full brute force: cache off, steady-state period detection off, and
	// the event-driven fast-forward off.
	bruteProc := uarch.SKL()
	bruteProc.Config.PeriodDetectBudget = machine.PeriodDetectDisabled
	bruteProc.Config.EventDrivenDisabled = true
	brute, err := NewHarness(bruteProc, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	wantBrute, err := brute.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}

	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: cached %v != uncached %v", i, got[i], want[i])
		}
		if got[i] != wantBrute[i] {
			t.Errorf("experiment %d: fast path %v != brute-force simulation %v", i, got[i], wantBrute[i])
		}
	}
	st := cached.CacheStats()
	if st.SimHits+st.SimMisses != int64(len(es)) {
		t.Errorf("hits+misses = %d, want %d simulations", st.SimHits+st.SimMisses, len(es))
	}
	// Re-measuring the same batch must be served from the cache (every
	// key was inserted by the first batch; nothing else writes between).
	// The first batch's own hit count is NOT asserted: concurrent
	// simulations of aliased bodies can race, both missing before either
	// inserts.
	again, err := cached.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if again[i] == got[i] {
			t.Errorf("experiment %d: identical noisy value on re-measurement; rng did not advance", i)
		}
	}
	st2 := cached.CacheStats()
	if delta := st2.SimHits - st.SimHits; delta != int64(len(es)) {
		t.Errorf("second batch hit %d of %d simulations", delta, len(es))
	}
	off := plain.CacheStats()
	if off.SimHits != 0 || off.SimMisses != 0 {
		t.Errorf("uncached harness recorded traffic: %+v", off)
	}
}

// keyOf returns the kernel key of an experiment under the given
// iteration counts.
func keyOf(t *testing.T, h *Harness, e portmap.Experiment, warmup, measure int) uint64 {
	t.Helper()
	e, instances, err := h.unroll(e)
	if err != nil {
		t.Fatal(err)
	}
	return h.kernelKey(e, instances, warmup, measure)
}

// TestKernelCacheAliasedBodies pins what the kernel key identifies: a
// singleton {i→1} and its count-scaled variant {i→2} unroll to the
// identical body and share a key, as do two forms of one semantic class
// (identical simulator specs and operand shapes); the iteration counts
// and every register-pool size are part of the key.
func TestKernelCacheAliasedBodies(t *testing.T) {
	proc := uarch.SKL()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	sub, ok := proc.ISA.FormByName("sub_r64_r64")
	if !ok {
		t.Fatal("sub_r64_r64 missing")
	}
	e1 := portmap.Experiment{{Inst: add.ID, Count: 1}}
	e2 := portmap.Experiment{{Inst: add.ID, Count: 2}}
	k1 := keyOf(t, h, e1, 1, 1)
	if keyOf(t, h, e2, 1, 1) != k1 {
		t.Error("count-scaled aliases produce different kernel keys")
	}
	b1, _, err := h.BuildLoop(e1)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := h.BuildLoop(e2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("count-scaled aliases unroll to different bodies")
	}
	if keyOf(t, h, portmap.Experiment{{Inst: sub.ID, Count: 1}}, 1, 1) != k1 {
		t.Error("same-class forms (identical specs) should alias in the kernel cache")
	}

	if keyOf(t, h, e1, 2, 1) == k1 || keyOf(t, h, e1, 1, 2) == k1 {
		t.Error("kernel key ignores the iteration counts")
	}
	e, instances, err := h.unroll(e1)
	if err != nil {
		t.Fatal(err)
	}
	if h.hintKey(e, instances) == k1 {
		t.Error("hint key equals the kernel key")
	}
	for i, grow := range []func(*PoolSizes){
		func(p *PoolSizes) { p.GPR++ },
		func(p *PoolSizes) { p.Vec++ },
		func(p *PoolSizes) { p.FPR++ },
		func(p *PoolSizes) { p.MemOffsets++ },
	} {
		opts := DefaultOptions()
		opts.Pools = DefaultPoolSizes(proc.ISA)
		grow(&opts.Pools)
		hp, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if keyOf(t, hp, e1, 1, 1) == k1 {
			t.Errorf("pool field %d: kernel key ignores the pool size", i)
		}
		ep, instances, err := hp.unroll(e1)
		if err != nil {
			t.Fatal(err)
		}
		if hp.hintKey(ep, instances) == h.hintKey(e, instances) {
			t.Errorf("pool field %d: hint key ignores the pool size", i)
		}
	}
}

// TestKernelKeyOperandSplit is the form-signature terminator's
// regression test: two form sequences whose concatenated operand shapes
// are equal but split differently between the forms — (r, r)(r) versus
// (r)(r, r) on identical simulator specs — lower to different bodies and
// must not share a key, while a form with the same spec and shapes as
// another still aliases it.
func TestKernelKeyOperandSplit(t *testing.T) {
	skl := uarch.SKL()
	add, _ := skl.ISA.FormByName("add_r64_r64")
	r := isa.Operand{Kind: isa.KindReg, Class: isa.ClassGPR, Width: 64, Read: true}
	a := isa.New("split")
	two := a.MustAddForm(isa.Form{Mnemonic: "two", Operands: []isa.Operand{r, r}, Class: "alu"})
	one := a.MustAddForm(isa.Form{Mnemonic: "one", Operands: []isa.Operand{r}, Class: "alu"})
	one2 := a.MustAddForm(isa.Form{Mnemonic: "onb", Operands: []isa.Operand{r}, Class: "alu"})
	two2 := a.MustAddForm(isa.Form{Mnemonic: "twb", Operands: []isa.Operand{r, r}, Class: "alu"})
	proc := &uarch.Processor{Name: "split", ISA: a, Config: skl.Config, ClockGHz: skl.ClockGHz}
	for range a.Forms() {
		proc.Specs = append(proc.Specs, skl.Specs[add.ID])
	}
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := portmap.Experiment{{Inst: two.ID, Count: 1}, {Inst: one.ID, Count: 1}}   // (r, r)(r)
	y := portmap.Experiment{{Inst: one2.ID, Count: 1}, {Inst: two2.ID, Count: 1}} // (r)(r, r)
	bx, _, err := h.BuildLoop(x)
	if err != nil {
		t.Fatal(err)
	}
	by, _, err := h.BuildLoop(y)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(bx[0].Reads, by[0].Reads) {
		t.Fatal("test premise wrong: the split should change the lowered read lists")
	}
	if keyOf(t, h, x, 1, 1) == keyOf(t, h, y, 1, 1) {
		t.Error("operand lists split differently across forms alias in the kernel key")
	}
	if keyOf(t, h, portmap.Experiment{{Inst: two.ID, Count: 1}, {Inst: one2.ID, Count: 1}}, 1, 1) != keyOf(t, h, x, 1, 1) {
		t.Error("forms with equal specs and operand shapes should alias")
	}
}

// canonicalBody encodes a lowered body the way the simulator sees it:
// spec content fingerprints in place of form IDs, register lists as is.
func canonicalBody(mach *machine.Machine, body []machine.Inst) []uint64 {
	var out []uint64
	for _, in := range body {
		out = append(out, mach.SpecFingerprint(in.Spec), uint64(len(in.Reads)), uint64(len(in.Writes)))
		for _, r := range in.Reads {
			out = append(out, uint64(r))
		}
		for _, w := range in.Writes {
			out = append(out, uint64(w))
		}
	}
	return out
}

// TestKernelKeyDeterminesBody checks the soundness argument of the
// kernel key on real form sets: over every singleton and a seeded sample
// of pair experiments of each processor, experiments with equal keys
// build equal canonical bodies.
func TestKernelKeyDeterminesBody(t *testing.T) {
	for _, proc := range []*uarch.Processor{uarch.SKL(), uarch.ZEN(), uarch.A72()} {
		h, err := NewHarness(proc, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := proc.ISA.NumForms()
		es := exp.Singletons(n)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 1000; i++ {
			es = append(es, portmap.Experiment{
				{Inst: rng.Intn(n), Count: 1 + rng.Intn(3)},
				{Inst: rng.Intn(n), Count: 1 + rng.Intn(3)},
			})
		}
		byKey := map[uint64][]uint64{}
		aliased := 0
		for _, e := range es {
			body, _, err := h.BuildLoop(e)
			if err != nil {
				t.Fatal(err)
			}
			k := keyOf(t, h, e, 1, 1)
			canon := canonicalBody(h.mach, body)
			if prev, ok := byKey[k]; ok {
				aliased++
				if !reflect.DeepEqual(prev, canon) {
					t.Fatalf("%s: experiment %v shares a key with a different body", proc.Name, e)
				}
			}
			byKey[k] = canon
		}
		if aliased == 0 {
			t.Errorf("%s: no two experiments share a key; the check is vacuous", proc.Name)
		}
	}
}

// TestSimCacheDiskWarmStart is the end-to-end golden test of the
// persistence seam: a MeasureAll warm-started from a spilled cache in a
// "new process" (a fresh SimCache loaded from the spill directory) must
// be bit-identical to the cold run, report its hits as disk-warm, and
// degrade to a cold start — with identical results — when the file is
// missing, truncated, or corrupt.
func TestSimCacheDiskWarmStart(t *testing.T) {
	proc := uarch.A72()
	var es []portmap.Experiment
	for i := 0; i < 6; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1 + i%2}})
	}
	measureAll := func(c *SimCache) ([]float64, CacheStats) {
		opts := DefaultOptions()
		opts.Seed = 99
		opts.SimCache = c
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		return got, h.CacheStats()
	}

	cold := NewSimCache()
	want, coldStats := measureAll(cold)
	if coldStats.SimWarmHits != 0 {
		t.Fatalf("cold run reported %d warm hits", coldStats.SimWarmHits)
	}
	dir := t.TempDir()
	if err := cold.Spill(dir); err != nil {
		t.Fatal(err)
	}

	// "New process": a fresh cache, warm-started from disk.
	warm := NewSimCache()
	if loaded, _, lerr := warm.Load(dir); loaded == 0 {
		t.Fatalf("loaded no entries (err %v)", lerr)
	}
	got, warmStats := measureAll(warm)
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: warm %v != cold %v", i, got[i], want[i])
		}
	}
	if warmStats.SimMisses != 0 {
		t.Errorf("warm run missed %d times; every kernel was spilled", warmStats.SimMisses)
	}
	if warmStats.SimWarmHits == 0 || warmStats.SimWarmHits != warmStats.SimHits {
		t.Errorf("warm run hits not attributed to disk: %+v", warmStats)
	}

	// Damaged or missing files must cold-start with identical results.
	path := filepath.Join(dir, simCacheFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func() error) {
		t.Run(name, func(t *testing.T) {
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
			c := NewSimCache()
			loaded, _, lerr := c.Load(dir)
			if loaded != 0 || lerr == nil {
				t.Fatalf("damaged file loaded %d entries (err %v)", loaded, lerr)
			}
			got, stats := measureAll(c)
			for i := range es {
				if got[i] != want[i] {
					t.Errorf("experiment %d: after failed load %v != cold %v", i, got[i], want[i])
				}
			}
			if stats.SimWarmHits != 0 {
				t.Errorf("failed load produced %d warm hits", stats.SimWarmHits)
			}
		})
	}
	corrupt("truncated", func() error { return os.WriteFile(path, data[:len(data)/2], 0o644) })
	corrupt("bit-flipped", func() error {
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x40
		return os.WriteFile(path, b, 0o644)
	})
	corrupt("missing", func() error { return os.Remove(path) })
}

// TestSimCacheOwnership pins who shares what: harnesses with separate
// SimCache values each pay their own misses, a harness sharing another's
// value is served by its hits, and every one of them is bit-identical to
// a harness without a cache.
func TestSimCacheOwnership(t *testing.T) {
	proc := uarch.SKL()
	var es []portmap.Experiment
	for i := 0; i < 8; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 2}}) // body-aliases the singleton
	}
	measureAll := func(c *SimCache) ([]float64, CacheStats) {
		opts := DefaultOptions()
		opts.Seed = 31
		opts.SimCache = c
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		return got, h.CacheStats()
	}
	same := func(tag string, got, want []float64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: experiment %d: %v != uncached %v", tag, i, got[i], want[i])
			}
		}
	}

	want, off := measureAll(nil)
	if off != (CacheStats{}) {
		t.Errorf("uncached harness recorded traffic: %+v", off)
	}

	// Every distinct body misses at least once in a cold cache; racing
	// aliases can add misses, never remove them.
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[uint64]bool{}
	for _, e := range es {
		distinct[keyOf(t, h, e, h.opts.WarmupIters, h.opts.MeasureIters)] = true
	}
	for _, tag := range []string{"first separate cache", "second separate cache"} {
		got, st := measureAll(NewSimCache())
		same(tag, got, want)
		if st.SimMisses < int64(len(distinct)) || st.SimHits+st.SimMisses != int64(len(es)) || st.SimWarmHits != 0 {
			t.Errorf("%s: %+v, want at least %d misses of %d simulations", tag, st, len(distinct), len(es))
		}
	}

	shared := NewSimCache()
	got, _ := measureAll(shared)
	same("first sharer", got, want)
	got, st := measureAll(shared)
	same("second sharer", got, want)
	if st.SimMisses != 0 || st.SimHits != int64(len(es)) {
		t.Errorf("second sharer: %+v, want all %d simulations served by hits", st, len(es))
	}
}

// TestMeasureNoiseStreamIndependentOfCache pins the noise-ordering
// guarantee directly: measuring the same experiment twice must give two
// different noisy values (the rng advances per measurement), and the
// pair must be identical between a cache-on and a cache-off harness.
func TestMeasureNoiseStreamIndependentOfCache(t *testing.T) {
	proc := uarch.ZEN()
	e := portmap.Experiment{{Inst: proc.ISA.Form(0).ID, Count: 1}}
	run := func(c *SimCache) [2]float64 {
		opts := DefaultOptions()
		opts.Seed = 7
		opts.SimCache = c
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]float64
		for i := range out {
			v, err := h.Measure(e)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	on := run(NewSimCache())
	off := run(nil)
	if on != off {
		t.Errorf("noise stream diverged: cache on %v, off %v", on, off)
	}
	if on[0] == on[1] {
		t.Error("repeated measurements returned identical noisy values; noise not drawn per measurement")
	}
}

// TestKernelCachePeriodHints pins the per-body hint seam: a second
// harness sharing the first one's SimCache and measuring the same
// experiments under a different iteration budget misses the kernel
// cache (its keys include the budget) but reuses the periods the first
// harness detected — and its results stay bit-identical to an uncached
// harness with the same configuration.
func TestKernelCachePeriodHints(t *testing.T) {
	proc := uarch.SKL()
	var es []portmap.Experiment
	for i := 0; i < 6; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
	}
	opts := DefaultOptions()
	opts.Seed = 17

	a, err := NewHarness(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MeasureAll(context.Background(), es); err != nil {
		t.Fatal(err)
	}

	optsB := opts                               // same SimCache
	optsB.MeasureIters = opts.MeasureIters + 80 // same bodies, new cache keys
	b, err := NewHarness(proc, optsB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct-body keys from harness A never hit (the budget is part of
	// the key): every simulation B actually runs is a miss (its only hits
	// are bodies aliased within its own batch), and the misses reuse A's
	// detected periods through the hint table.
	st := b.CacheStats()
	if st.SimMisses == 0 {
		t.Fatal("budget change produced no kernel-cache misses")
	}
	if st.SimPeriodHints == 0 {
		t.Error("no period hints reused across iteration budgets")
	}

	optsOff := optsB
	optsOff.SimCache = nil
	plain, err := NewHarness(proc, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.MeasureAll(context.Background(), es)
	if err != nil {
		t.Fatal(err)
	}
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: hinted %v != unhinted %v", i, got[i], want[i])
		}
	}
	if off := plain.CacheStats(); off.SimPeriodHints != 0 {
		t.Errorf("uncached harness recorded hint traffic: %+v", off)
	}
}

// TestPeriodHintDiskRoundTrip pins the persisted half of the hint seam:
// hints spilled by one process warm-start detection in the next — a
// "new process" (a fresh SimCache) that finds only the hint file reuses
// the previously detected periods on first contact with each body, with
// results bit-identical to cold detection. Damaged, missing, or
// out-of-range hint files degrade to cold detection.
//
// Which MeasureAll worker simulates an aliased body first depends on
// scheduling, and so do the batch's exact hit, miss and hint counts.
// The test therefore checks only the SimCache's contents and counts
// that hold under any schedule.
func TestPeriodHintDiskRoundTrip(t *testing.T) {
	proc := uarch.SKL()
	var es []portmap.Experiment
	for i := 0; i < 6; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
	}
	measureAll := func(c *SimCache) ([]float64, CacheStats) {
		opts := DefaultOptions()
		opts.Seed = 23
		opts.SimCache = c
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		return got, h.CacheStats()
	}
	// coldStart checks the counts every batch through a cache without
	// disk-seeded kernels has, whatever the schedule.
	coldStart := func(tag string, st CacheStats) {
		t.Helper()
		if st.SimWarmHits != 0 || st.SimMisses == 0 || st.SimHits+st.SimMisses != int64(len(es)) {
			t.Errorf("%s: %+v, want no warm hits and %d simulations, at least one missed", tag, st, len(es))
		}
	}
	live := func(tab *cachetable.Table) int { return len(tab.Snapshot()) }

	cold := NewSimCache()
	want, coldStats := measureAll(cold)
	coldStart("cold run", coldStats)
	dir := t.TempDir()
	if err := cold.Spill(dir); err != nil {
		t.Fatal(err)
	}
	// Keep only the hint file, so the next cache's kernel table starts
	// cold and every body re-simulates — now hinted.
	if err := os.Remove(filepath.Join(dir, simCacheFile)); err != nil {
		t.Fatal(err)
	}

	warm := NewSimCache()
	kernels, hints, lerr := warm.Load(dir)
	if hints == 0 {
		t.Fatalf("loaded no hints (err %v)", lerr)
	}
	if kt, _ := warm.tables(); kernels != 0 || live(kt) != 0 || !errors.Is(lerr, cachestore.ErrMissing) {
		t.Fatalf("hint-only load seeded %d kernels (%d live, err %v)", kernels, live(kt), lerr)
	}
	got, warmStats := measureAll(warm)
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: hint-warmed %v != cold %v", i, got[i], want[i])
		}
	}
	// The kernel table started empty, so every distinct body missed once
	// and consulted the loaded hints.
	coldStart("hint-warmed run", warmStats)
	if warmStats.SimPeriodHints == 0 {
		t.Error("disk-loaded hints never engaged on first contact")
	}

	// Damaged or missing files must degrade to cold detection, results
	// unchanged.
	path := filepath.Join(dir, hintCacheFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func() error) {
		t.Run(name, func(t *testing.T) {
			if err := mutate(); err != nil {
				t.Fatal(err)
			}
			c := NewSimCache()
			_, loaded, lerr := c.Load(dir)
			if _, ht := c.tables(); loaded != 0 || live(ht) != 0 || lerr == nil {
				t.Fatalf("damaged hint file loaded %d entries (%d live, err %v)", loaded, live(ht), lerr)
			}
			got, stats := measureAll(c)
			for i := range es {
				if got[i] != want[i] {
					t.Errorf("experiment %d: after failed load %v != cold %v", i, got[i], want[i])
				}
			}
			coldStart("after failed load", stats)
		})
	}
	corrupt("truncated", func() error { return os.WriteFile(path, data[:len(data)/2], 0o644) })
	corrupt("bit-flipped", func() error {
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x40
		return os.WriteFile(path, b, 0o644)
	})
	corrupt("missing", func() error { return os.Remove(path) })

	// A well-formed file whose values are outside the valid period range
	// (a collision artifact, or a file written by a buggy producer) seeds
	// nothing.
	if err := cachestore.Save(path, cachestore.SchemaPeriodHints, hintCacheContentKey, []cachetable.Entry{
		{Key: 12345, Val: 1},                 // periods must exceed one iteration
		{Key: 67890, Val: maxPeriodHint + 5}, // absurdly large
	}); err != nil {
		t.Fatal(err)
	}
	if _, loaded, lerr := NewSimCache().Load(dir); loaded != 0 || !errors.Is(lerr, ErrNoValidHints) {
		t.Fatalf("out-of-range hints loaded %d entries (err %v)", loaded, lerr)
	}
}

// TestBuildLoopGolden pins register allocation and lowering bit for bit:
// a digest of the lowered loop bodies (spec IDs, read and write lists in
// order, instance counts) over every singleton and a seeded sample of
// pair experiments of each ISA (bodies depend on the ISA, not the
// processor). The digests were recorded before the allocator's pools,
// per-instruction register sets and operand and register-list storage
// were restructured; any change to a register choice or a list order
// changes them.
func TestBuildLoopGolden(t *testing.T) {
	want := map[string]uint64{
		"x86-64":  0x9937da0bbe7cbf5d,
		"ARMv8-A": 0x68da2e602a9a851e,
	}
	for _, proc := range []*uarch.Processor{uarch.SKL(), uarch.A72()} {
		h, err := NewHarness(proc, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := proc.ISA.NumForms()
		es := exp.Singletons(n)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 2000; i++ {
			es = append(es, portmap.Experiment{
				{Inst: rng.Intn(n), Count: 1 + rng.Intn(3)},
				{Inst: rng.Intn(n), Count: 1 + rng.Intn(3)},
			})
		}
		d := fnv.New64a()
		put := func(v int) {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], uint64(v))
			d.Write(w[:])
		}
		for _, e := range es {
			body, instances, err := h.BuildLoop(e)
			if err != nil {
				t.Fatal(err)
			}
			put(instances)
			put(len(body))
			for _, in := range body {
				put(in.Spec)
				put(len(in.Reads))
				for _, r := range in.Reads {
					put(r)
				}
				put(len(in.Writes))
				for _, w := range in.Writes {
					put(w)
				}
			}
		}
		if got := d.Sum64(); got != want[proc.ISA.Name] {
			t.Errorf("%s: body digest %#x, want %#x", proc.ISA.Name, got, want[proc.ISA.Name])
		}
	}
}

// TestNonPositiveCountsRejected is the regression test for experiments
// with non-positive counts: one whose every count is ≤ 0 used to panic
// with an integer divide by zero in BuildConcreteLoop, and a mixed one
// measured as if its negative terms were absent. Every entry point
// rejects them with an error, with or without a SimCache — as it does
// counts whose sum would overflow the body length.
func TestNonPositiveCountsRejected(t *testing.T) {
	proc := uarch.SKL()
	bad := []portmap.Experiment{
		{{Inst: 0, Count: -1}},
		{{Inst: 0, Count: 0}},
		{{Inst: 0, Count: 1}, {Inst: 1, Count: -1}},
		{{Inst: 0, Count: 1}, {Inst: 0, Count: -1}},
		{{Inst: 0, Count: 1}, {Inst: 1, Count: 0}},
		{{Inst: 0, Count: math.MaxInt}, {Inst: 1, Count: 1}},
		{{Inst: 0, Count: maxExperimentLen + 1}},
	}
	for _, c := range []*SimCache{NewSimCache(), nil} {
		opts := DefaultOptions()
		opts.SimCache = c
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range bad {
			if _, err := h.Measure(e); err == nil {
				t.Errorf("Measure(%v) accepted", e)
			}
			if _, err := h.MeasureAll(context.Background(), []portmap.Experiment{{{Inst: 1, Count: 1}}, e}); err == nil {
				t.Errorf("MeasureAll(%v) accepted", e)
			}
			if _, err := h.EmitProgram(e); err == nil {
				t.Errorf("EmitProgram(%v) accepted", e)
			}
			if _, _, err := h.BuildLoop(e); err == nil {
				t.Errorf("BuildLoop(%v) accepted", e)
			}
		}
		// A failed batch draws no noise for its valid experiments either.
		if h.Measurements() != 0 {
			t.Errorf("rejected experiments were accounted as %d measurements", h.Measurements())
		}
	}
}

// TestStaleSpillKeysColdStart plants spill files written under the
// content keys of the previous kernel-key encoding (whose entry keys
// hashed lowered loop bodies, not form signatures): Load must reject both
// with cachestore.ErrContentKey and seed nothing, and measurement must
// cold-start with results identical to a fresh cache.
func TestStaleSpillKeysColdStart(t *testing.T) {
	const (
		oldSimContentKey  = 0x706d65766f73696d // "pmevosim"
		oldHintContentKey = 0x706d65766f686e74 // "pmevohnt"
	)
	if oldSimContentKey == simCacheContentKey || oldHintContentKey == hintCacheContentKey {
		t.Fatal("content keys were not bumped with the key encoding")
	}
	proc := uarch.A72()
	var es []portmap.Experiment
	for i := 0; i < 6; i++ {
		es = append(es, portmap.Experiment{{Inst: proc.ISA.Form(i).ID, Count: 1}})
	}
	measureAll := func(c *SimCache) ([]float64, CacheStats) {
		opts := DefaultOptions()
		opts.Seed = 5
		opts.SimCache = c
		h, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		return got, h.CacheStats()
	}
	fresh := NewSimCache()
	want, _ := measureAll(fresh)
	dir := t.TempDir()
	if err := fresh.Spill(dir); err != nil {
		t.Fatal(err)
	}
	// Re-stamp the current entries under the old content keys, as a
	// -cache-dir from an older binary would hold them.
	kt, ht := fresh.tables()
	if err := cachestore.Save(filepath.Join(dir, simCacheFile), cachestore.SchemaSimCache, oldSimContentKey, kt.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := cachestore.Save(filepath.Join(dir, hintCacheFile), cachestore.SchemaPeriodHints, oldHintContentKey, ht.Snapshot()); err != nil {
		t.Fatal(err)
	}
	c := NewSimCache()
	kernels, hints, lerr := c.Load(dir)
	if kernels != 0 || hints != 0 || !errors.Is(lerr, cachestore.ErrContentKey) {
		t.Fatalf("stale spill loaded %d kernels, %d hints (err %v)", kernels, hints, lerr)
	}
	if !strings.Contains(lerr.Error(), simCacheFile) || !strings.Contains(lerr.Error(), hintCacheFile) {
		t.Errorf("load diagnostic %q does not name both files", lerr)
	}
	got, st := measureAll(c)
	for i := range es {
		if got[i] != want[i] {
			t.Errorf("experiment %d: after stale load %v != fresh %v", i, got[i], want[i])
		}
	}
	if st.SimWarmHits != 0 || st.SimPeriodHints != 0 || st.SimMisses == 0 {
		t.Errorf("stale load did not cold-start: %+v", st)
	}
}

// TestMeasureAllCachedMatchesUncached is the differential test of the
// early-keyed kernel cache: cached MeasureAll output is bit-identical to
// a harness without a SimCache, over a slice of A72's full singleton and
// pair set and over a ZEN SubsetMeasurer set.
func TestMeasureAllCachedMatchesUncached(t *testing.T) {
	compare := func(name string, cached, plain exp.BatchMeasurer, es []portmap.Experiment) {
		t.Helper()
		got, err := cached.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.MeasureAll(context.Background(), es)
		if err != nil {
			t.Fatal(err)
		}
		for i := range es {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: experiment %v: cached %v != uncached %v", name, es[i], got[i], want[i])
			}
		}
	}
	harnesses := func(proc *uarch.Processor) (cached, plain *Harness) {
		opts := DefaultOptions()
		opts.Seed = 13
		cached, err := NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.SimCache = nil
		plain, err = NewHarness(proc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return cached, plain
	}

	proc, singles, pairs := a72Experiments(t)
	es := append([]portmap.Experiment(nil), singles...)
	for i := 0; i < len(pairs); i += 97 {
		es = append(es, pairs[i])
	}
	cached, plain := harnesses(proc)
	compare("A72", cached, plain, es)
	if st := cached.CacheStats(); st.SimHits == 0 {
		t.Errorf("A72: no kernel-cache hits (%+v); the comparison never took the hit path", st)
	}

	zen := uarch.ZEN()
	var ids []int
	for _, class := range zen.ISA.Classes() {
		for i, f := range zen.ISA.FormsInClass(class) {
			if i < 2 {
				ids = append(ids, f.ID)
			}
		}
	}
	sub := exp.Singletons(len(ids))
	for a := range ids {
		for b := a + 1; b < len(ids); b += 3 {
			sub = append(sub, portmap.Experiment{{Inst: a, Count: 1}, {Inst: b, Count: 1 + (a+b)%3}})
		}
	}
	cached, plain = harnesses(zen)
	compare("ZEN subset", SubsetMeasurer{H: cached, IDs: ids}, SubsetMeasurer{H: plain, IDs: ids}, sub)
}

// TestKernelCacheHitAllocs pins the hit path's cost: a kernel-cache hit
// builds no loop, so it allocates nothing for an experiment in normal form
// and no more than Normalize for one that is not.
func TestKernelCacheHitAllocs(t *testing.T) {
	proc := uarch.A72()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	normal := portmap.Experiment{{Inst: 3, Count: 1}, {Inst: 7, Count: 2}}
	shuffled := portmap.Experiment{{Inst: 7, Count: 1}, {Inst: 3, Count: 1}, {Inst: 7, Count: 1}}
	for _, e := range []portmap.Experiment{normal, shuffled} {
		if _, err := h.simulate(e); err != nil {
			t.Fatal(err)
		}
	}
	before := h.CacheStats()
	simulate := func(e portmap.Experiment) func() {
		return func() {
			if _, err := h.simulate(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, simulate(normal)); n != 0 {
		t.Errorf("hit on a normal-form experiment allocates %v times", n)
	}
	norm := testing.AllocsPerRun(100, func() { shuffled.Normalize() })
	if n := testing.AllocsPerRun(100, simulate(shuffled)); n > norm {
		t.Errorf("hit allocates %v times, Normalize alone %v", n, norm)
	}
	if st := h.CacheStats(); st.SimMisses != before.SimMisses {
		t.Errorf("hit path missed: %+v after %+v", st, before)
	}
}
