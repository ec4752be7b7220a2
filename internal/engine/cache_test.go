package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// newMeasuredService builds a service over a measured set; tests check
// it against directFitness on that set.
func newMeasuredService(t *testing.T, rng *rand.Rand, numInsts, numPorts int) (*Service, *exp.Set) {
	t.Helper()
	_, set := measuredSet(t, rng, numInsts, numPorts)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return svc, set
}

// TestMemoizedDavgBitIdentical is the central property of the tables'
// fingerprint-keyed reuse: on random mappings — including repeated
// evaluations of equal mappings and of structurally equal clones, which
// reuse every table a scratch already built — the service's Davg must
// be bit-identical to the direct per-experiment computation.
func TestMemoizedDavgBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	fast, set := newMeasuredService(t, rng, 10, 4)
	for trial := 0; trial < 40; trial++ {
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 10, NumPorts: 4, MaxUops: 3})
		want := directFitness(t, set, m, bottleneckOf)
		for rep := 0; rep < 2; rep++ { // rep 1 reuses the tables built by rep 0
			got, err := fast.Evaluate(m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d rep %d: fast %+v != reference %+v", trial, rep, got, want)
			}
			// A structurally equal clone shares all fingerprints and must
			// reuse the same tables.
			got2, err := fast.Evaluate(m.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if got2 != want {
				t.Fatalf("trial %d rep %d: clone %+v != reference %+v", trial, rep, got2, want)
			}
		}
	}
}

// TestEvaluateDeltaBitIdentical drives random single-instruction edit
// sequences through the NewState/EvaluateDelta/Commit protocol and
// checks every pending and committed fitness bitwise against a direct
// full evaluation of the edited mapping.
func TestEvaluateDeltaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	svc, set := newMeasuredService(t, rng, 9, 4)
	for trial := 0; trial < 12; trial++ {
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 9, NumPorts: 4, MaxUops: 3})
		st, err := svc.NewState(m)
		if err != nil {
			t.Fatal(err)
		}
		if full := directFitness(t, set, m, bottleneckOf); st.Fitness() != full {
			t.Fatalf("trial %d: NewState %+v != full %+v", trial, st.Fitness(), full)
		}
		for edit := 0; edit < 30; edit++ {
			inst := rng.Intn(9)
			j := rng.Intn(len(m.Decomp[inst]))
			// Random probe: bump a count, drop a µop, or add one.
			var revert func()
			switch op := rng.Intn(3); {
			case op == 0:
				orig := m.Decomp[inst][j].Count
				m.SetUopCount(inst, j, orig+1)
				revert = func() { m.SetUopCount(inst, j, orig) }
			case op == 1 && len(m.Decomp[inst]) > 1:
				uc := m.RemoveUopAt(inst, j)
				revert = func() { m.InsertUopAt(inst, j, uc) }
			default:
				ports := portmap.RandomPortSet(rng, 4)
				before := append([]portmap.UopCount(nil), m.Decomp[inst]...)
				m.AddUop(inst, ports, 1+rng.Intn(2))
				revert = func() { m.SetDecomp(inst, before) }
			}
			fit, err := svc.EvaluateDelta(st, inst)
			if err != nil {
				t.Fatal(err)
			}
			want := directFitness(t, set, m, bottleneckOf)
			if fit != want {
				t.Fatalf("trial %d edit %d: delta %+v != full %+v", trial, edit, fit, want)
			}
			if rng.Intn(2) == 0 {
				st.Commit()
				if st.Fitness() != want {
					t.Fatalf("trial %d edit %d: committed %+v != full %+v", trial, edit, st.Fitness(), want)
				}
			} else {
				revert()
			}
		}
		// After the edit sequence the state must still agree with a
		// fresh full evaluation (one more delta on a no-op edit).
		m.SetUopCount(0, 0, m.Decomp[0][0].Count+1)
		fit, err := svc.EvaluateDelta(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := directFitness(t, set, m, bottleneckOf); fit != want {
			t.Fatalf("trial %d: final delta %+v != full %+v", trial, fit, want)
		}
	}
	if svc.Stats().DeltaEvaluations == 0 {
		t.Error("no delta evaluations recorded")
	}
	if svc.Stats().DeltaExperimentsSkipped == 0 {
		t.Error("delta evaluation skipped no experiments on §4.1-style sets")
	}
}

// TestEvaluateDeltaValidation covers the error paths of the delta API.
func TestEvaluateDeltaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	_, set := measuredSet(t, rng, 5, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.NewState(portmap.NewMapping(2, 3)); err == nil {
		t.Error("undersized mapping accepted")
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 5, NumPorts: 3})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.EvaluateDelta(st, -1); err == nil {
		t.Error("negative instruction accepted")
	}
	if _, err := svc.EvaluateDelta(st, 99); err == nil {
		t.Error("out-of-range instruction accepted")
	}
	if _, err := other.EvaluateDelta(st, 0); err == nil {
		t.Error("foreign fitness state accepted")
	}
	st.Commit() // no pending delta: must be a no-op
	if st.Mapping() != m {
		t.Error("Mapping() does not return the tracked mapping")
	}
}

// TestMemoConcurrentEvaluation hammers one service from many goroutines
// over a small pool of shared mappings; under -race this verifies the
// pooled per-goroutine scratches and the pure fingerprint reads, and
// every result must match the direct computation.
func TestMemoConcurrentEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	fast, set := newMeasuredService(t, rng, 8, 4)
	mappings := make([]*portmap.Mapping, 6)
	want := make([]Fitness, len(mappings))
	for i := range mappings {
		mappings[i] = portmap.Random(rng, portmap.RandomOptions{NumInsts: 8, NumPorts: 4, MaxUops: 2})
		want[i] = directFitness(t, set, mappings[i], bottleneckOf)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				k := (g + iter) % len(mappings)
				got, err := fast.Evaluate(mappings[k])
				if err != nil {
					t.Errorf("Evaluate: %v", err)
					return
				}
				if got != want[k] {
					t.Errorf("concurrent Evaluate diverged: %+v != %+v", got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Batched evaluation over a population with many duplicates.
	pop := make([]*portmap.Mapping, 64)
	fits := make([]Fitness, len(pop))
	for i := range pop {
		pop[i] = mappings[i%len(mappings)]
	}
	if err := fast.EvaluateAll(context.Background(), pop, fits); err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		if fits[i] != want[i%len(mappings)] {
			t.Fatalf("batch %d: %+v != %+v", i, fits[i], want[i%len(mappings)])
		}
	}
}

// TestInvertedIndex checks the instruction → experiments index against a
// direct scan.
func TestInvertedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	_, set := measuredSet(t, rng, 7, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for inst := 0; inst < 7; inst++ {
		var want []int32
		for i, m := range set.Measurements {
			for _, term := range m.Exp {
				if term.Inst == inst {
					want = append(want, int32(i))
					break
				}
			}
		}
		got := svc.instExps[inst]
		if len(got) != len(want) {
			t.Fatalf("inst %d: index has %d experiments, want %d", inst, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("inst %d: index[%d] = %d, want %d", inst, k, got[k], want[k])
			}
		}
		if svc.ExperimentsWith(inst) != len(want) {
			t.Fatalf("ExperimentsWith(%d) = %d, want %d", inst, svc.ExperimentsWith(inst), len(want))
		}
		// §4.1 sets are pair experiments: the per-instruction slice must
		// be a strict subset of all experiments.
		if len(got) >= svc.NumExperiments() {
			t.Fatalf("inst %d: index not sparse (%d of %d)", inst, len(got), svc.NumExperiments())
		}
	}
}

// TestNegativeCountRejected: NewService must reject negative experiment
// counts (the parts-based fast path relies on non-negative masses).
func TestNegativeCountRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	_, set := measuredSet(t, rng, 4, 3)
	set.Measurements[0].Exp = portmap.Experiment{{Inst: 0, Count: -1}}
	if _, err := NewService(set, ServiceOptions{}); err == nil {
		t.Error("negative experiment count accepted")
	}
}

// TestEvaluateDeltaOversizedMapping: NewState admits mappings covering
// more instructions than the experiment set; probing and committing an
// edit on an extra instruction (which occurs in no experiment) must
// change only the volume — and must not crash.
func TestEvaluateDeltaOversizedMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	_, set := measuredSet(t, rng, 4, 3)
	svc, err := NewService(set, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 6, NumPorts: 3, MaxUops: 2})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	base := st.Fitness()
	m.SetUopCount(5, 0, m.Decomp[5][0].Count+1)
	fit, err := svc.EvaluateDelta(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	st.Commit()
	if fit.Davg != base.Davg {
		t.Errorf("editing an unused instruction changed Davg: %v -> %v", base.Davg, fit.Davg)
	}
	if fit.Volume != m.Volume() {
		t.Errorf("Volume = %d, want %d", fit.Volume, m.Volume())
	}
	if _, err := svc.EvaluateDelta(st, 6); err == nil {
		t.Error("instruction beyond the mapping accepted")
	}
}

// TestEvaluateDeltaErrorInvalidatesPending: a failed EvaluateDelta must
// leave no pending delta, so a stray Commit cannot fold the last,
// rejected probe into the state.
func TestEvaluateDeltaErrorInvalidatesPending(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	svc, set := newMeasuredService(t, rng, 4, 3)
	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: 4, NumPorts: 3, MaxUops: 2})
	st, err := svc.NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Fitness()
	// A probe that changes the fitness, then rejected: the edit is
	// reverted and not committed, so its delta stays pending.
	orig := m.Decomp[0][0].Count
	m.SetUopCount(0, 0, orig+3)
	probe, err := svc.EvaluateDelta(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if probe == want {
		t.Fatal("probe did not change the fitness; pick another edit")
	}
	m.SetUopCount(0, 0, orig)
	if _, err := svc.EvaluateDelta(st, m.NumInsts()); err == nil {
		t.Fatal("out-of-range instruction accepted")
	}
	st.Commit() // must be a no-op
	if st.Fitness() != want {
		t.Errorf("state corrupted after failed delta: %+v != %+v", st.Fitness(), want)
	}
	if full := directFitness(t, set, m, bottleneckOf); full != want {
		t.Errorf("full evaluation %+v != state %+v", full, want)
	}
	fit, err := svc.EvaluateDelta(st, 0) // the no-op edit: same mapping
	if err != nil {
		t.Fatal(err)
	}
	if fit != want {
		t.Errorf("recovered delta %+v != full %+v", fit, want)
	}
}

// TestNarrowMappingRejected: every scoring entry point must return an
// error, not panic, for a mapping covering fewer instructions than the
// experiment set — Service.EvaluateAll would otherwise panic on a worker
// goroutine and take the process down.
func TestNarrowMappingRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	svc, _ := newMeasuredService(t, rng, 5, 3)
	wide := portmap.Random(rng, portmap.RandomOptions{NumInsts: 5, NumPorts: 3, MaxUops: 2})
	narrow := portmap.Random(rng, portmap.RandomOptions{NumInsts: 2, NumPorts: 3, MaxUops: 2})
	batch := []*portmap.Mapping{wide, narrow, wide, wide}
	if _, err := svc.Evaluate(narrow); err == nil {
		t.Error("Evaluate accepted a narrow mapping")
	}
	if err := svc.EvaluateAll(context.Background(), batch, make([]Fitness, len(batch))); err == nil {
		t.Error("EvaluateAll accepted a narrow mapping")
	}
	if err := svc.NewBatchEvaluator().EvaluateAll(context.Background(), batch, make([]Fitness, len(batch))); err == nil {
		t.Error("BatchEvaluator.EvaluateAll accepted a narrow mapping")
	}
	if _, err := svc.NewState(narrow); err == nil {
		t.Error("NewState accepted a narrow mapping")
	}
	if got := svc.Evaluations(); got != 0 {
		t.Errorf("rejected candidates counted as %d evaluations", got)
	}
}
