// Benchmarks regenerating the paper's tables and figures, plus the
// ablation studies called out in DESIGN.md.
//
// The per-table/figure benchmarks run the corresponding eval driver at
// QuickScale once per iteration; run them individually with
// `-benchtime=1x` for a single regeneration, or use cmd/pmevo-bench for
// full-scale runs with rendered output. The engine benchmarks
// (Bottleneck vs LP, naive vs optimized) are conventional
// microbenchmarks and reproduce the performance claims of §5.4.
package pmevo_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"pmevo/internal/congruence"
	"pmevo/internal/eval"
	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/isa"
	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

// --- Table 1 ---------------------------------------------------------

func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(uarch.All()) != 3 {
			b.Fatal("expected three processors")
		}
	}
}

// --- Figure 6 --------------------------------------------------------

func BenchmarkFigure6(b *testing.B) {
	scale := eval.QuickScale()
	scale.Figure6MaxLen = 6
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFigure6(context.Background(), scale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 2/3/4 and Figure 7 ---------------------------------------

// The pipeline suite is expensive; all four benchmarks derived from it
// share one instance.
var (
	suiteOnce sync.Once
	suiteVal  *eval.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *eval.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = eval.NewSuite(context.Background(), eval.QuickScale(), nil)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

func BenchmarkTable2(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.Table2(); len(rows) != 3 {
			b.Fatal("bad table 2")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := s.Accuracy(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if out := acc.RenderTable3(); len(out) == 0 {
			b.Fatal("empty table 3")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := s.Accuracy(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if out := acc.RenderTable4(); len(out) == 0 {
			b.Fatal("empty table 4")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := s.Accuracy(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if out := acc.RenderFigure7(); len(out) == 0 {
			b.Fatal("empty figure 7")
		}
	}
}

// --- Figure 8: bottleneck simulation algorithm vs LP solver ----------

// figure8Workload builds a fixed workload: random three-level mappings
// over an artificial 100-instruction ISA and random experiments, as in
// §5.4.
func figure8Workload(ports, length, n int) []([]portmap.MassTerm) {
	rng := rand.New(rand.NewSource(42))
	var out [][]portmap.MassTerm
	for len(out) < n {
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 100, NumPorts: ports, MaxUops: 3})
		for e := 0; e < 8 && len(out) < n; e++ {
			expr := portmap.RandomExperiment(rng, 100, length)
			out = append(out, m.Flatten(expr))
		}
	}
	return out
}

func BenchmarkBottleneckVsLP_Ports(b *testing.B) {
	for _, ports := range []int{4, 8, 10, 14, 18} {
		work := figure8Workload(ports, 4, 32)
		// The paper's Θ(2^|P|) algorithm (with the zeta-transform
		// optimization): its cost grows exponentially in the ports.
		b.Run(benchName("Bottleneck", ports), func(b *testing.B) {
			var ev throughput.Evaluator
			for i := 0; i < b.N; i++ {
				ev.BottleneckTable(work[i%len(work)])
			}
		})
		// Our production dispatcher additionally short-circuits through
		// union enumeration when the experiment has few distinct µops.
		b.Run(benchName("Dispatched", ports), func(b *testing.B) {
			var ev throughput.Evaluator
			for i := 0; i < b.N; i++ {
				ev.Bottleneck(work[i%len(work)])
			}
		})
		b.Run(benchName("LP", ports), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := throughput.LP(work[i%len(work)], ports); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBottleneckVsLP_Length(b *testing.B) {
	for _, length := range []int{1, 4, 7, 10} {
		work := figure8Workload(10, length, 32)
		b.Run(benchName("Bottleneck", length), func(b *testing.B) {
			var ev throughput.Evaluator
			for i := 0; i < b.N; i++ {
				ev.Bottleneck(work[i%len(work)])
			}
		})
		b.Run(benchName("LP", length), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := throughput.LP(work[i%len(work)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(engine string, x int) string {
	digits := ""
	if x < 10 {
		digits = "0"
	}
	return engine + "_" + digits + itoa(x)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// --- Ablation: naive subset scan vs subset-sum table vs union --------

func BenchmarkBottleneckNaive(b *testing.B) {
	work := figure8Workload(10, 5, 32)
	for i := 0; i < b.N; i++ {
		throughput.BottleneckNaive(work[i%len(work)])
	}
}

func BenchmarkBottleneckSOS(b *testing.B) {
	work := figure8Workload(10, 5, 32)
	var ev throughput.Evaluator
	for i := 0; i < b.N; i++ {
		ev.Bottleneck(work[i%len(work)])
	}
}

func BenchmarkBottleneckUnion(b *testing.B) {
	work := figure8Workload(10, 5, 32)
	for i := 0; i < b.N; i++ {
		throughput.BottleneckUnion(work[i%len(work)])
	}
}

// --- Deduplicated + incremental fitness evaluation --------------------

// BenchmarkFitnessEvolution measures the population fitness loop at
// QuickScale: the §4.4 evolutionary loop plus greedy local search over
// the 12-instruction/8-port ablation set, with the search's
// work-skipping layers (duplicate-candidate skip, delta local search).
// The evals/s metric is candidate Davg computations per second.
func BenchmarkFitnessEvolution(b *testing.B) {
	scale := eval.QuickScale()
	set := ablationSet(b)
	opts := evo.Options{
		PopulationSize:  scale.Population,
		MaxGenerations:  scale.MaxGenerations,
		NumPorts:        8,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            3,
	}
	b.ResetTimer()
	evals := 0
	for i := 0; i < b.N; i++ {
		res, err := evo.Run(context.Background(), set, opts)
		if err != nil {
			b.Fatal(err)
		}
		evals += res.FitnessEvaluations
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(evals)/s, "evals/s")
	}
}

// --- Ablation: evolutionary algorithm design choices -----------------

// ablationSet builds a measured experiment set over a hidden 8-port
// machine with 12 instructions.
func ablationSet(b *testing.B) *exp.Set {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	hidden := portmap.Random(rng, portmap.RandomOptions{NumInsts: 12, NumPorts: 8, MaxUops: 2})
	set, err := exp.GenerateAndMeasure(context.Background(), oracleMeasurer{hidden}, 12)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

type oracleMeasurer struct{ m *portmap.Mapping }

func (o oracleMeasurer) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(o.m, e), nil
}

func ablationOpts() evo.Options {
	return evo.Options{
		PopulationSize:  120,
		MaxGenerations:  20,
		NumPorts:        8,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            3,
	}
}

func BenchmarkAblationBaselineEA(b *testing.B) {
	set := ablationSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evo.Run(context.Background(), set, ablationOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMutation(b *testing.B) {
	set := ablationSet(b)
	opts := ablationOpts()
	opts.MutationRate = 0.1 // the paper rejects mutation; measure its cost
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evo.Run(context.Background(), set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoLocalSearch(b *testing.B) {
	set := ablationSet(b)
	opts := ablationOpts()
	opts.LocalSearch = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evo.Run(context.Background(), set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoVolumeObjective(b *testing.B) {
	set := ablationSet(b)
	opts := ablationOpts()
	opts.VolumeObjective = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evo.Run(context.Background(), set, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCongruence measures the evolutionary search with and
// without congruence filtering on the SKL virtual machine: the filtered
// run searches over class representatives only (§4.3's point).
func BenchmarkAblationCongruence(b *testing.B) {
	proc := uarch.SKL()
	sub, ids := subsetISA(b, proc, 2)
	mopts := measure.DefaultOptions()
	h, err := measure.NewHarness(proc, mopts)
	if err != nil {
		b.Fatal(err)
	}
	set, err := exp.GenerateAndMeasure(context.Background(), measure.SubsetMeasurer{H: h, IDs: ids}, sub.NumForms())
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, s *exp.Set) {
		opts := evo.Options{
			PopulationSize:  100,
			MaxGenerations:  10,
			NumPorts:        proc.Config.NumPorts,
			LocalSearch:     false,
			VolumeObjective: true,
			Seed:            1,
		}
		for i := 0; i < b.N; i++ {
			if _, err := evo.Run(context.Background(), s, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Unfiltered", func(b *testing.B) { run(b, set) })
	b.Run("Filtered", func(b *testing.B) {
		classes, err := congruencePartition(set)
		if err != nil {
			b.Fatal(err)
		}
		run(b, classes)
	})
}

// subsetISA picks up to perClass forms per semantic class, returning
// the subset ISA and the original form IDs.
func subsetISA(b *testing.B, proc *uarch.Processor, perClass int) (*isa.ISA, []int) {
	b.Helper()
	var picked []*isa.Form
	var ids []int
	for _, class := range proc.ISA.Classes() {
		forms := proc.ISA.FormsInClass(class)
		n := perClass
		if n > len(forms) {
			n = len(forms)
		}
		for _, f := range forms[:n] {
			picked = append(picked, f)
			ids = append(ids, f.ID)
		}
	}
	sub, err := proc.ISA.Subset(proc.ISA.Name+"-bench", picked)
	if err != nil {
		b.Fatal(err)
	}
	return sub, ids
}

// congruencePartition projects a measured set onto its congruence-class
// representatives at the paper's ε = 0.05.
func congruencePartition(set *exp.Set) (*exp.Set, error) {
	classes, err := congruence.Partition(set, 0.05)
	if err != nil {
		return nil, err
	}
	return classes.ProjectSet(set), nil
}

// --- Sublinear measurement: period detection + kernel cache ----------

// BenchmarkMeasurement runs the §4.1/§4.2 measurement protocol
// (generate-and-measure: singletons, pairs, weighted pairs) on the SKL
// virtual machine with the measurement fast path: steady-state period
// detection in the cycle-level simulator plus the kernel-level
// simulation cache. BenchmarkMeasurementNoCache is the same workload
// with both disabled — brute-force cycle-by-cycle simulation of every
// measurement, the pre-optimization cost model. Results are
// bit-identical (pinned by eval.RunMeasureBench and the machine/measure
// property tests); the pair quantifies the measurement speedup. The form
// subset keeps two forms per semantic class, preserving the class-level
// kernel redundancy of Table 1-shaped form sets.
func BenchmarkMeasurement(b *testing.B) { benchMeasurement(b, false) }

func BenchmarkMeasurementNoCache(b *testing.B) { benchMeasurement(b, true) }

func benchMeasurement(b *testing.B, baseline bool) {
	measurements := 0
	for i := 0; i < b.N; i++ {
		// Cold cache per iteration: DefaultOptions gives each harness a
		// fresh one, so the fast variant never replays hits paid for by
		// earlier benchmarks (or the previous iteration).
		proc := uarch.SKL()
		if baseline {
			proc.Config.PeriodDetectBudget = machine.PeriodDetectDisabled
			proc.Config.EventDrivenDisabled = true
		}
		sub, ids := subsetISA(b, proc, 2)
		mopts := measure.DefaultOptions()
		if baseline {
			mopts.SimCache = nil
		}
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exp.GenerateAndMeasure(context.Background(), measure.SubsetMeasurer{H: h, IDs: ids}, sub.NumForms()); err != nil {
			b.Fatal(err)
		}
		measurements += h.Measurements()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(measurements)/s, "meas/s")
	}
}

// --- Substrate microbenchmarks ---------------------------------------

func BenchmarkMachineRun(b *testing.B) {
	proc := uarch.SKL()
	mach, err := proc.Machine()
	if err != nil {
		b.Fatal(err)
	}
	h, err := measure.NewHarness(proc, measure.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	mul, _ := proc.ISA.FormByName("imul_r64_r64")
	body, _, err := h.BuildLoop(portmap.Experiment{{Inst: add.ID, Count: 2}, {Inst: mul.ID, Count: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.Run(body, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRunDeadCycles times the event-driven fast-forward's
// best case — a latency chain on the highest-latency SKL instruction,
// where most cycles are dead — with the skip on and off (period
// detection disabled on both so the stepper is isolated; the eval
// machine benchmark asserts their bit-equality).
func BenchmarkMachineRunDeadCycles(b *testing.B) {
	for _, eventOff := range []bool{false, true} {
		name := "event"
		if eventOff {
			name = "stepped"
		}
		b.Run(name, func(b *testing.B) {
			proc := uarch.SKL()
			proc.Config.PeriodDetectBudget = machine.PeriodDetectDisabled
			proc.Config.EventDrivenDisabled = eventOff
			mach, err := proc.Machine()
			if err != nil {
				b.Fatal(err)
			}
			div, _ := proc.ISA.FormByName("div_r64_r64")
			body := make([]machine.Inst, 6)
			for i := range body {
				body[i] = machine.Inst{Spec: div.ID, Reads: []int{0}, Writes: []int{0}}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mach.Run(body, 200); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMeasureExperiment(b *testing.B) {
	proc := uarch.SKL()
	h, err := measure.NewHarness(proc, measure.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	add, _ := proc.ISA.FormByName("add_r64_r64")
	ld, _ := proc.ISA.FormByName("mov_r64_m64")
	e := portmap.Experiment{{Inst: add.ID, Count: 1}, {Inst: ld.ID, Count: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Measure(e); err != nil {
			b.Fatal(err)
		}
	}
}
