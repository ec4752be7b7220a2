package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// modelMeasurer measures experiments exactly according to a ground-truth
// mapping (noise-free), for fast unit testing.
type modelMeasurer struct {
	m     *portmap.Mapping
	calls int
}

func (mm *modelMeasurer) Measure(e portmap.Experiment) (float64, error) {
	mm.calls++
	return throughput.OfExperiment(mm.m, e), nil
}

// failingMeasurer errors after k calls.
type failingMeasurer struct{ left int }

func (fm *failingMeasurer) Measure(e portmap.Experiment) (float64, error) {
	if fm.left <= 0 {
		return 0, errors.New("boom")
	}
	fm.left--
	return 1, nil
}

func testMapping() *portmap.Mapping {
	// 3 instructions over 3 ports: i0 on {P0}, i1 on {P0,P1}, i2 two µops.
	m := portmap.NewMapping(3, 3)
	m.SetDecomp(0, []portmap.UopCount{{Ports: portmap.MakePortSet(0), Count: 1}})
	m.SetDecomp(1, []portmap.UopCount{{Ports: portmap.MakePortSet(0, 1), Count: 1}})
	m.SetDecomp(2, []portmap.UopCount{
		{Ports: portmap.MakePortSet(2), Count: 2},
	})
	return m
}

func TestSingletons(t *testing.T) {
	s := Singletons(3)
	if len(s) != 3 {
		t.Fatalf("got %d singletons", len(s))
	}
	for i, e := range s {
		if len(e) != 1 || e[0].Inst != i || e[0].Count != 1 {
			t.Errorf("singleton %d = %v", i, e)
		}
	}
}

func TestPairExperimentsShapes(t *testing.T) {
	// individual throughputs: i0: 1.0, i1: 0.5, i2: 2.0.
	ind := []float64{1.0, 0.5, 2.0}
	es := PairExperiments(ind)
	keys := make(map[string]bool)
	for _, e := range es {
		keys[e.Key()] = true
	}
	// Plain pairs.
	for _, want := range []string{"0:1,1:1", "0:1,2:1", "1:1,2:1"} {
		if !keys[want] {
			t.Errorf("missing pair %q", want)
		}
	}
	// Weighted pairs: t0 > t1 → {0:1, 1:2}; t2 > t0 → {2:1, 0:2};
	// t2 > t1 → {2:1, 1:4}.
	for _, want := range []string{"0:1,1:2", "0:2,2:1", "1:4,2:1"} {
		if !keys[want] {
			t.Errorf("missing weighted pair %q (have %v)", want, keys)
		}
	}
	if len(es) != 6 {
		t.Errorf("got %d experiments, want 6", len(es))
	}
}

func TestPairExperimentsEqualThroughputsNoWeighted(t *testing.T) {
	es := PairExperiments([]float64{1, 1})
	if len(es) != 1 {
		t.Fatalf("got %d experiments, want only the plain pair", len(es))
	}
}

func TestPairExperimentsDedup(t *testing.T) {
	// t0=2, t1=1: weighted pair is {0:1, 1:2}; no duplicate of the plain
	// pair appears even though ceil(2/1)=2.
	es := PairExperiments([]float64{2, 1})
	seen := make(map[string]int)
	for _, e := range es {
		seen[e.Key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("experiment %q appears %d times", k, n)
		}
	}
}

func TestGenerateAndMeasure(t *testing.T) {
	mm := &modelMeasurer{m: testMapping()}
	set, err := GenerateAndMeasure(context.Background(), mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumInsts != 3 {
		t.Errorf("NumInsts = %d", set.NumInsts)
	}
	// Individual throughputs: i0 = 1 (single port), i1 = 0.5 (two
	// ports), i2 = 2 (two µops on one port).
	want := []float64{1, 0.5, 2}
	for i, w := range want {
		if math.Abs(set.Individual[i]-w) > 1e-9 {
			t.Errorf("Individual[%d] = %g, want %g", i, set.Individual[i], w)
		}
	}
	if set.NumExperiments() < 6 {
		t.Errorf("only %d experiments", set.NumExperiments())
	}
	if mm.calls != set.NumExperiments() {
		t.Errorf("measurer called %d times for %d experiments", mm.calls, set.NumExperiments())
	}
}

func TestGenerateAndMeasureErrors(t *testing.T) {
	if _, err := GenerateAndMeasure(context.Background(), &modelMeasurer{m: testMapping()}, 0); err == nil {
		t.Error("zero instructions accepted")
	}
	if _, err := GenerateAndMeasure(context.Background(), &failingMeasurer{left: 1}, 3); err == nil {
		t.Error("failing measurer not propagated")
	}
	if _, err := GenerateAndMeasure(context.Background(), &failingMeasurer{left: 4}, 3); err == nil {
		t.Error("failure in pair phase not propagated")
	}
}

func TestPairThroughputs(t *testing.T) {
	mm := &modelMeasurer{m: testMapping()}
	set, err := GenerateAndMeasure(context.Background(), mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := set.PairThroughputs()
	// The pair {i0, i1} must be present with its model throughput:
	// masses p0:1, p01:1 → Q={P0}: 1, Q={P0,P1}: 1 → 1.
	tp, ok := pairs[PairKey{A: 0, CountA: 1, B: 1, CountB: 1}]
	if !ok {
		t.Fatal("pair (0,1) missing")
	}
	if math.Abs(tp-1) > 1e-9 {
		t.Errorf("pair (0,1) throughput = %g, want 1", tp)
	}
	// Singletons must not appear.
	for k := range pairs {
		if k.A == k.B {
			t.Errorf("degenerate pair key %+v", k)
		}
	}
}

func TestProject(t *testing.T) {
	mm := &modelMeasurer{m: testMapping()}
	set, err := GenerateAndMeasure(context.Background(), mm, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Keep instructions 0 and 2 (drop 1).
	keep := []int{0, -1, 1}
	proj := set.Project(keep, 2)
	if proj.NumInsts != 2 {
		t.Errorf("NumInsts = %d", proj.NumInsts)
	}
	if proj.Individual[0] != set.Individual[0] || proj.Individual[1] != set.Individual[2] {
		t.Errorf("Individual = %v", proj.Individual)
	}
	for _, m := range proj.Measurements {
		for _, term := range m.Exp {
			if term.Inst < 0 || term.Inst >= 2 {
				t.Errorf("projected experiment references instruction %d", term.Inst)
			}
		}
	}
	// All experiments containing old instruction 1 are gone: the
	// remaining two-instruction experiments must be over {0, 1(new)}.
	found := false
	for _, m := range proj.Measurements {
		if len(m.Exp.Normalize()) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no pair experiments survived projection")
	}
}

func TestRandomBenchmarkSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := RandomBenchmarkSet(rng, 10, 100, 5)
	if len(set) != 100 {
		t.Fatalf("got %d experiments", len(set))
	}
	distinct := make(map[string]bool)
	for _, e := range set {
		if e.TotalCount() != 5 {
			t.Errorf("experiment %v has length %d, want 5", e, e.TotalCount())
		}
		distinct[e.Key()] = true
	}
	if len(distinct) < 50 {
		t.Errorf("only %d distinct experiments of 100", len(distinct))
	}
}

func ExamplePairExperiments() {
	es := PairExperiments([]float64{2, 1})
	for _, e := range es {
		fmt.Println(e.Key())
	}
	// Output:
	// 0:1,1:1
	// 0:1,1:2
}

// pairExperimentsByKey is the string-keyed implementation PairExperiments
// replaced: every candidate normalized and deduplicated through
// Experiment.Key. It is the reference for TestPairExperimentsMatchesKeyDedup.
func pairExperimentsByKey(individual []float64) []portmap.Experiment {
	n := len(individual)
	var out []portmap.Experiment
	seen := make(map[string]bool)
	add := func(e portmap.Experiment) {
		e = e.Normalize()
		k := e.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			add(portmap.Experiment{{Inst: a, Count: 1}, {Inst: b, Count: 1}})
			tA, tB := individual[a], individual[b]
			if tA > tB && tB > 0 {
				k := int(math.Ceil(tA / tB))
				add(portmap.Experiment{{Inst: a, Count: 1}, {Inst: b, Count: k}})
			} else if tB > tA && tA > 0 {
				k := int(math.Ceil(tB / tA))
				add(portmap.Experiment{{Inst: b, Count: 1}, {Inst: a, Count: k}})
			}
		}
	}
	return out
}

// TestPairExperimentsMatchesKeyDedup pins that PairExperiments, which
// relies on pairs being unique by construction instead of a string-keyed
// set, returns the same experiments in the same order as the
// deduplicating reference on random throughput vectors — including ties,
// throughputs one ulp apart (the closest a weight comes to 1, the only
// value that could repeat a plain pair), zeros and negative values — and
// that no experiment repeats.
func TestPairExperimentsMatchesKeyDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		ind := make([]float64, rng.Intn(40))
		for i := range ind {
			switch rng.Intn(8) {
			case 0:
				if i > 0 {
					ind[i] = ind[rng.Intn(i)] // tie
				}
			case 1:
				if i > 0 {
					ind[i] = math.Nextafter(ind[rng.Intn(i)], math.Inf(1)) // one ulp apart
				}
			case 2:
				ind[i] = 0
			case 3:
				ind[i] = -rng.Float64()
			default:
				ind[i] = math.Exp(rng.NormFloat64() * 2)
			}
		}
		got := PairExperiments(ind)
		want := pairExperimentsByKey(ind)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d experiments, want %d", trial, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if !reflect.DeepEqual([]portmap.InstCount(got[i]), []portmap.InstCount(want[i])) {
				t.Fatalf("trial %d: experiment %d = %v, want %v", trial, i, got[i], want[i])
			}
			if k := got[i].Key(); seen[k] {
				t.Fatalf("trial %d: experiment %v repeats", trial, got[i])
			} else {
				seen[k] = true
			}
		}
	}
	// Neighbouring doubles still weigh at least 2 (pairWeight's argument),
	// across binades and into the subnormals.
	for i := 0; i < 100000; i++ {
		fast := math.Float64frombits(rng.Uint64() &^ (1 << 63))
		if math.IsNaN(fast) || math.IsInf(fast, 0) || fast == 0 || fast == math.MaxFloat64 {
			continue
		}
		slow := math.Nextafter(fast, math.Inf(1))
		if k, _, ok := pairWeight(slow, fast); !ok || k < 2 {
			t.Fatalf("pairWeight(%v, %v) = %d, %v; want a weight of at least 2", slow, fast, k, ok)
		}
	}
}
