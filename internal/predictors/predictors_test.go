package predictors

import (
	"math"
	"math/rand"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/stats"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

func TestFromMapping(t *testing.T) {
	m := portmap.NewMapping(2, 2)
	m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	m.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0, 1), Count: 1}})
	p := FromMapping("test", m)
	if p.Name() != "test" {
		t.Errorf("Name = %q", p.Name())
	}
	got, err := p.Predict(portmap.Experiment{{Inst: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("Predict = %g, want 2", got)
	}
	if _, err := p.Predict(portmap.Experiment{{Inst: 5, Count: 1}}); err == nil {
		t.Error("out-of-range instruction accepted")
	}
}

func TestUopsInfoAvailability(t *testing.T) {
	if _, err := UopsInfo(uarch.SKL()); err != nil {
		t.Errorf("uops.info should support SKL: %v", err)
	}
	for _, name := range []string{"ZEN", "A72"} {
		proc, _ := uarch.ByName(name)
		if _, err := UopsInfo(proc); err == nil {
			t.Errorf("uops.info should refuse %s (no per-port counters)", name)
		}
	}
}

func TestIACAAvailability(t *testing.T) {
	if _, err := IACA(uarch.SKL()); err != nil {
		t.Errorf("IACA should support SKL: %v", err)
	}
	for _, name := range []string{"ZEN", "A72"} {
		proc, _ := uarch.ByName(name)
		if _, err := IACA(proc); err == nil {
			t.Errorf("IACA should refuse %s (Intel-only)", name)
		}
	}
}

func TestIACAFrontEndBound(t *testing.T) {
	proc := uarch.SKL()
	p, err := IACA(proc)
	if err != nil {
		t.Fatal(err)
	}
	// A wide mix of cheap ALU ops: port model says count/4 ALU ports
	// ≈ 1.5 for 6 ops, but the front end allows only 6 µops/cycle,
	// so both bounds coincide here; use 8 ops to make the front end
	// bind: port bound 8/4 = 2, front end 8/6 = 1.33 → prediction 2.
	add, _ := proc.ISA.FormByName("add_r64_r64")
	e := portmap.Experiment{{Inst: add.ID, Count: 8}}
	got, err := p.Predict(e)
	if err != nil {
		t.Fatal(err)
	}
	want := throughput.OfExperiment(proc.GroundTruth, e)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("IACA = %g, port model = %g (port bound should dominate)", got, want)
	}
	// A single-µop instruction repeated cannot exercise the front end
	// (4 ALU ports, width 6). Build a mix that is front-end bound:
	// many single-cycle shuffles (p5 only)? No - port bound 1/port.
	// Instead verify the bound formula directly on a wide mov mix.
	mov, _ := proc.ISA.FormByName("mov_r64_r64")
	e2 := portmap.Experiment{{Inst: add.ID, Count: 4}, {Inst: mov.ID, Count: 4}}
	got2, err := p.Predict(e2)
	if err != nil {
		t.Fatal(err)
	}
	port := throughput.OfExperiment(proc.GroundTruth, e2) // 8 µops / 4 ports = 2
	front := 8.0 / 6.0
	want2 := math.Max(port, front)
	if math.Abs(got2-want2) > 1e-9 {
		t.Errorf("IACA = %g, want %g", got2, want2)
	}
}

func TestLLVMMCADegradationByArch(t *testing.T) {
	// SKL: mild degradation → small MAPE; ZEN/A72: heavy degradation →
	// systematic over-estimation.
	for _, tc := range []struct {
		name           string
		overEstimation bool
	}{{"SKL", false}, {"ZEN", true}, {"A72", true}} {
		proc, _ := uarch.ByName(tc.name)
		p := LLVMMCA(proc)
		if p.Name() != "llvm-mca" {
			t.Fatalf("Name = %q", p.Name())
		}
		rng := rand.New(rand.NewSource(7))
		over, under, n := 0, 0, 200
		for i := 0; i < n; i++ {
			e := portmap.RandomExperiment(rng, proc.ISA.NumForms(), 5)
			pred, err := p.Predict(e)
			if err != nil {
				t.Fatal(err)
			}
			truth := throughput.OfExperiment(proc.GroundTruth, e)
			if pred > truth*1.05 {
				over++
			}
			if pred < truth*0.95 {
				under++
			}
		}
		if tc.overEstimation && over < n/2 {
			t.Errorf("%s: llvm-mca over-estimates only %d/%d experiments", tc.name, over, n)
		}
		if !tc.overEstimation && over > n/4 {
			t.Errorf("%s: llvm-mca over-estimates %d/%d experiments, want mostly accurate", tc.name, over, n)
		}
		if under > n/10 {
			t.Errorf("%s: llvm-mca under-estimates %d/%d experiments vs model", tc.name, under, n)
		}
	}
}

func TestLLVMMCANeverBelowModelOptimum(t *testing.T) {
	// Degrading port sets can only increase predicted cycles.
	proc := uarch.ZEN()
	p := LLVMMCA(proc)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		e := portmap.RandomExperiment(rng, proc.ISA.NumForms(), 4)
		pred, err := p.Predict(e)
		if err != nil {
			t.Fatal(err)
		}
		truth := throughput.OfExperiment(proc.GroundTruth, e)
		if pred < truth-1e-9 {
			t.Fatalf("degraded model predicts %g below optimum %g", pred, truth)
		}
	}
}

func TestIthemalTrainsAndPredicts(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultIthemalOptions()
	opts.TrainingBlocks = 300 // keep the test fast
	p, err := TrainIthemal(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "Ithemal" {
		t.Errorf("Name = %q", p.Name())
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	got, err := p.Predict(portmap.Experiment{{Inst: add.ID, Count: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Errorf("prediction %g not positive", got)
	}
	if _, err := p.Predict(portmap.Experiment{{Inst: 10 << 20, Count: 1}}); err == nil {
		t.Error("out-of-range instruction accepted")
	}
}

func TestIthemalOptionsValidation(t *testing.T) {
	proc := uarch.SKL()
	if _, err := TrainIthemal(proc, IthemalOptions{TrainingBlocks: 1, MaxBlockLen: 4}); err == nil {
		t.Error("too few training blocks accepted")
	}
	if _, err := TrainIthemal(proc, IthemalOptions{TrainingBlocks: 100, MaxBlockLen: 0}); err == nil {
		t.Error("zero block length accepted")
	}
}

// TestIthemalWorseOnDependencyFreeExperiments reproduces the paper's
// central observation about Ithemal (Table 3): trained on dependency-
// heavy code, it predicts dependency-free port-mapping-bound experiments
// much worse than the port-mapping-based tools.
func TestIthemalWorseOnDependencyFreeExperiments(t *testing.T) {
	proc := uarch.SKL()
	opts := DefaultIthemalOptions()
	opts.TrainingBlocks = 600
	ith, err := TrainIthemal(proc, opts)
	if err != nil {
		t.Fatal(err)
	}
	ui, err := UopsInfo(proc)
	if err != nil {
		t.Fatal(err)
	}

	h, err := measure.NewHarness(proc, measure.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	bench := exp.RandomBenchmarkSet(rng, proc.ISA.NumForms(), 60, 5)
	var meas, predIth, predUI []float64
	for _, e := range bench {
		m, err := h.Measure(e)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := ith.Predict(e)
		if err != nil {
			t.Fatal(err)
		}
		pu, err := ui.Predict(e)
		if err != nil {
			t.Fatal(err)
		}
		meas = append(meas, m)
		predIth = append(predIth, pi)
		predUI = append(predUI, pu)
	}
	mapeIth := stats.MAPE(predIth, meas)
	mapeUI := stats.MAPE(predUI, meas)
	if mapeIth < 2*mapeUI {
		t.Errorf("Ithemal MAPE %.1f%% should be much worse than uops.info %.1f%%",
			mapeIth, mapeUI)
	}
}

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
	if _, err := solveLinearSystem([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Error("singular system accepted")
	}
}

// TestIthemalRejectsDegenerateBlockLength: MaxBlockLen 1 must error,
// not panic (blocks are always at least 2 instructions long).
func TestIthemalRejectsDegenerateBlockLength(t *testing.T) {
	opts := DefaultIthemalOptions()
	opts.MaxBlockLen = 1
	if _, err := TrainIthemal(uarch.SKL(), opts); err == nil {
		t.Error("MaxBlockLen 1 accepted")
	}
}
