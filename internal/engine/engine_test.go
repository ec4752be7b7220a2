package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// randomWorkload builds a random mapping and a batch of random
// experiments over it.
func randomWorkload(rng *rand.Rand, numInsts, numPorts, numExps, maxLen int) (*portmap.Mapping, []portmap.Experiment) {
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: numPorts, MaxUops: 3})
	es := make([]portmap.Experiment, numExps)
	for i := range es {
		es[i] = portmap.RandomExperiment(rng, numInsts, 1+rng.Intn(maxLen))
	}
	return m, es
}

// TestBatchedAgreesWithSingle is the central batching property: for
// every engine, PredictAll must agree exactly with per-experiment
// Predict on random mappings and experiments.
func TestBatchedAgreesWithSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m, es := randomWorkload(rng, 20, 3+rng.Intn(6), 30, 5)
		for _, name := range Names() {
			eng, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			batched := make([]float64, len(es))
			if err := eng.PredictAll(m, es, batched); err != nil {
				t.Fatalf("%s: PredictAll: %v", name, err)
			}
			for i, e := range es {
				single, err := eng.Predict(m, e)
				if err != nil {
					t.Fatalf("%s: Predict: %v", name, err)
				}
				if single != batched[i] {
					t.Fatalf("%s: trial %d experiment %d: Predict %g != PredictAll %g",
						name, trial, i, single, batched[i])
				}
			}
		}
	}
}

// TestEnginesAgreeWithLPReference property-tests every engine against
// the LP reference on random mappings (the Definition 3/Equation 1
// equivalence).
func TestEnginesAgreeWithLPReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lp, err := ByName("lp")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		m, es := randomWorkload(rng, 16, 3+rng.Intn(5), 12, 4)
		want := make([]float64, len(es))
		if err := lp.PredictAll(m, es, want); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"bottleneck", "union", "naive"} {
			eng, _ := ByName(name)
			got := make([]float64, len(es))
			if err := eng.PredictAll(m, es, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range es {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s: trial %d experiment %d: %g, LP reference %g",
						name, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("no-such-engine"); err == nil {
		t.Error("unknown engine accepted")
	}
	def, err := ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != Default().Name() {
		t.Errorf("empty name resolved to %q, want default %q", def.Name(), Default().Name())
	}
	for _, name := range Names() {
		eng, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, eng.Name())
		}
	}
}

func TestPredictValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := randomWorkload(rng, 4, 3, 1, 1)
	bad := portmap.Experiment{{Inst: 99, Count: 1}}
	for _, name := range Names() {
		eng, _ := ByName(name)
		if _, err := eng.Predict(m, bad); err == nil {
			t.Errorf("%s: out-of-range instruction accepted", name)
		}
		if err := eng.PredictAll(m, []portmap.Experiment{bad}, make([]float64, 1)); err == nil {
			t.Errorf("%s: out-of-range instruction accepted in batch", name)
		}
		if err := eng.PredictAll(m, make([]portmap.Experiment, 2), make([]float64, 1)); err == nil {
			t.Errorf("%s: mismatched output length accepted", name)
		}
	}
}

// measuredSet builds a measurement set from a hidden mapping with
// noise-free model measurements.
func measuredSet(t *testing.T, rng *rand.Rand, numInsts, numPorts int) (*portmap.Mapping, *exp.Set) {
	t.Helper()
	hidden := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: numPorts, MaxUops: 2})
	set, err := exp.GenerateAndMeasure(context.Background(), oracle{hidden}, numInsts)
	if err != nil {
		t.Fatal(err)
	}
	return hidden, set
}

type oracle struct{ m *portmap.Mapping }

func (o oracle) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(o.m, e), nil
}

// directFitness computes the fitness of m over set directly: one
// allocating prediction per experiment, accumulated in experiment order
// — the reference the service must match.
func directFitness(t *testing.T, set *exp.Set, m *portmap.Mapping,
	predict func(*portmap.Mapping, portmap.Experiment) (float64, error)) Fitness {
	t.Helper()
	sum := 0.0
	for _, meas := range set.Measurements {
		pred, err := predict(m, meas.Exp)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(pred-meas.Throughput) / meas.Throughput
	}
	return Fitness{Davg: sum / float64(len(set.Measurements)), Volume: m.Volume()}
}

// bottleneckOf is throughput.OfExperiment in directFitness's shape.
func bottleneckOf(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(m, e), nil
}

// TestServiceMatchesDirectDavg checks the pre-flattened batched service
// against a direct, allocating computation of Davg, bitwise. The port
// counts cover both routes: subset-sum tables up to
// throughput.MaxUnitTablePorts (4 and 10 ports) and
// Evaluator.ThroughputOf above it (12 ports).
func TestServiceMatchesDirectDavg(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, numPorts := range []int{4, 10, 12} {
		_, set := measuredSet(t, rng, 10, numPorts)
		svc, err := NewService(set, ServiceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if svc.NumExperiments() != len(set.Measurements) {
			t.Fatalf("%d ports: NumExperiments = %d, want %d", numPorts, svc.NumExperiments(), len(set.Measurements))
		}
		ms := make([]*portmap.Mapping, 16)
		for i := range ms {
			ms[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 10, NumPorts: numPorts, MaxUops: 3})
		}
		fits := make([]Fitness, len(ms))
		if err := svc.EvaluateAll(context.Background(), ms, fits); err != nil {
			t.Fatal(err)
		}
		for i, m := range ms {
			want := directFitness(t, set, m, bottleneckOf)
			if math.Float64bits(fits[i].Davg) != math.Float64bits(want.Davg) {
				t.Errorf("%d ports, mapping %d: Davg %g, direct %g", numPorts, i, fits[i].Davg, want.Davg)
			}
			if fits[i].Volume != want.Volume {
				t.Errorf("%d ports, mapping %d: Volume %d, want %d", numPorts, i, fits[i].Volume, want.Volume)
			}
			single, err := svc.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			if single != fits[i] {
				t.Errorf("%d ports, mapping %d: Evaluate %+v != EvaluateAll %+v", numPorts, i, single, fits[i])
			}
		}
		if got := svc.Evaluations(); got != len(ms)*2 {
			t.Errorf("%d ports: Evaluations = %d, want %d", numPorts, got, len(ms)*2)
		}
	}
}

// TestServiceGenericEngineAgrees checks the service against the LP
// reference engine: Davg from direct per-experiment LP solves
// (throughput.OfExperimentLP) must agree within 1e-9.
func TestServiceGenericEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	svc, set := newMeasuredService(t, rng, 8, 3)
	for trial := 0; trial < 8; trial++ {
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 3, MaxUops: 2})
		got, err := svc.Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		want := directFitness(t, set, m, throughput.OfExperimentLP)
		if math.Abs(got.Davg-want.Davg) > 1e-9 || got.Volume != want.Volume {
			t.Errorf("trial %d: bottleneck %+v vs lp %+v", trial, got, want)
		}
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewService(nil, ServiceOptions{}); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := NewService(&exp.Set{NumInsts: 2}, ServiceOptions{}); err == nil {
		t.Error("set without measurements accepted")
	}
	bad := &exp.Set{
		NumInsts:     1,
		Individual:   []float64{1},
		Measurements: []exp.Measurement{{Exp: portmap.Experiment{{Inst: 0, Count: 1}}, Throughput: -1}},
	}
	if _, err := NewService(bad, ServiceOptions{}); err == nil {
		t.Error("non-positive throughput accepted")
	}
	oob := &exp.Set{
		NumInsts:     1,
		Individual:   []float64{1},
		Measurements: []exp.Measurement{{Exp: portmap.Experiment{{Inst: 5, Count: 1}}, Throughput: 1}},
	}
	if _, err := NewService(oob, ServiceOptions{}); err == nil {
		t.Error("out-of-range instruction accepted")
	}
}

// TestConcurrentEngineUse exercises the predictors and the service from
// many goroutines at once; run under -race it verifies the concurrency
// contract of the package.
func TestConcurrentEngineUse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, es := randomWorkload(rng, 12, 4, 40, 4)
	_, set := measuredSet(t, rng, 8, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]*portmap.Mapping, 8)
	for i := range candidates {
		candidates[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 3, MaxUops: 2})
	}

	eng := Default()
	want := make([]float64, len(es))
	if err := eng.PredictAll(m, es, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				e := es[(g*7+iter)%len(es)]
				v, err := eng.Predict(m, e)
				if err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
				if v != want[(g*7+iter)%len(es)] {
					t.Errorf("concurrent Predict diverged: %g", v)
					return
				}
				if _, err := svc.Evaluate(candidates[(g+iter)%len(candidates)]); err != nil {
					t.Errorf("Evaluate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestForEachWorker(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{0, 1, 3, 200} {
			hits := make([]int32, n)
			var mu sync.Mutex
			maxWorker := -1
			ForEachWorker(n, workers, func(w, i int) {
				hits[i]++
				mu.Lock()
				if w > maxWorker {
					maxWorker = w
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			if n > 0 && maxWorker >= Workers(workers) {
				t.Fatalf("worker index %d out of range", maxWorker)
			}
		}
	}
}
