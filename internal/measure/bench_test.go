package measure

import (
	"context"
	"math/rand"
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// a72Experiments returns A72 and its §4.1 singleton and pair
// experiments over all forms, the pairs derived from the singletons'
// measured throughputs as the pipeline derives them.
func a72Experiments(tb testing.TB) (proc *uarch.Processor, singles, pairs []portmap.Experiment) {
	tb.Helper()
	proc = uarch.A72()
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	singles = exp.Singletons(proc.ISA.NumForms())
	ind, err := h.MeasureAll(context.Background(), singles)
	if err != nil {
		tb.Fatal(err)
	}
	return proc, singles, exp.PairExperiments(ind)
}

// sample returns n experiments drawn from es with a fixed seed.
func sample(es []portmap.Experiment, n int) []portmap.Experiment {
	rng := rand.New(rand.NewSource(1))
	out := make([]portmap.Experiment, n)
	for i := range out {
		out[i] = es[rng.Intn(len(es))]
	}
	return out
}

// BenchmarkBuildLoop times loop construction alone (register allocation
// and lowering) over sampled A72 pair experiments: the work a kernel-cache
// miss pays before simulating.
func BenchmarkBuildLoop(b *testing.B) {
	proc, _, pairs := a72Experiments(b)
	es := sample(pairs, 1024)
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := h.BuildLoop(es[i%len(es)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAllCached times MeasureAll over sampled A72 pair
// experiments through a warm SimCache: every simulation request hits,
// so this is the per-experiment cost of the kernel-cache hit path plus
// the noise layer.
func BenchmarkMeasureAllCached(b *testing.B) {
	proc, _, pairs := a72Experiments(b)
	es := sample(pairs, 4096)
	h, err := NewHarness(proc, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.MeasureAll(context.Background(), es); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		if _, err := h.MeasureAll(context.Background(), es); err != nil {
			b.Fatal(err)
		}
		n += len(es)
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(n)/s, "exps/s")
	}
}
