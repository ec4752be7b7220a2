package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"pmevo"
	"pmevo/internal/congruence"
	"pmevo/internal/engine"
	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// report is what one worker process hands back to its parent.
type report struct {
	SetupS      []float64       `json:"setup_s"`
	InferS      float64         `json:"infer_s"`
	MeasureS    float64         `json:"measure_s"`
	SearchS     float64         `json:"search_s"`
	BestError   float64         `json:"best_error"`
	BestVolume  int             `json:"best_volume"`
	Fingerprint string          `json:"fingerprint"`
	Mapping     json.RawMessage `json:"mapping"`
	Quality     []quality       `json:"quality,omitempty"`
	PeakRSSMiB  float64         `json:"peak_rss_mib"`
	Experiments int             `json:"experiments"`
	SimHits     int64           `json:"sim_hits"`
	SimMisses   int64           `json:"sim_misses"`
	// Layer holds the per-layer metrics of a traced process.
	Layer    map[string]float64 `json:"layer,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// quality is one search's training Davg and the held-out MAPE (in
// percent) of its full mapping.
type quality struct {
	Davg float64 `json:"davg"`
	MAPE float64 `json:"mape"`
}

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// lpTolerance bounds the difference between the search's Davg and the
// one recomputed with the Definition 3 linear program.
const lpTolerance = 1e-9

// checkResult runs the output checks every inference must pass and
// records the result's identity for the parent's cross-run checks.
func (r *report) checkResult(full, rep *portmap.Mapping, repSet *exp.Set, bestErr float64, bestVol int) {
	r.BestError, r.BestVolume = bestErr, bestVol
	if err := full.Validate(); err != nil {
		r.fail("mapping invalid: %v", err)
	}
	apes := make([]float64, len(repSet.Measurements))
	errs := make([]error, len(apes))
	parallel(len(apes), func(i int) {
		m := repSet.Measurements[i]
		tp, err := throughput.OfExperimentLP(rep, m.Exp)
		apes[i], errs[i] = math.Abs(tp-m.Throughput)/m.Throughput, err
	})
	sum := 0.0
	for i, ape := range apes {
		if errs[i] != nil {
			r.fail("LP on representative experiment %d: %v", i, errs[i])
			return
		}
		sum += ape
	}
	if lp := sum / float64(len(apes)); math.Abs(lp-bestErr) > lpTolerance {
		r.fail("LP Davg %.12g differs from BestError %.12g", lp, bestErr)
	}
	r.Fingerprint = fmt.Sprintf("%016x", full.FingerprintAll())
	data, err := json.Marshal(full)
	if err != nil {
		r.fail("encoding mapping: %v", err)
	}
	r.Mapping = data
}

// inferProcess times one cold pmevo.Infer call, checks its output and,
// when score is set, scores its quality (scoreQuality).
func inferProcess(ctx context.Context, w workload, seed int64, score bool) *report {
	r := &report{}
	in, setupS, err := setup(w, seed)
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	r.SetupS = setupS
	t0 := time.Now()
	res, err := pmevo.Infer(ctx, in.sub, in.measurer(), in.cfg)
	r.InferS = time.Since(t0).Seconds()
	r.PeakRSSMiB = peakRSSMiB()
	if err != nil {
		r.fail("infer: %v", err)
		return r
	}
	r.MeasureS = res.MeasurementTime.Seconds()
	r.SearchS = res.InferenceTime.Seconds()
	r.Experiments = res.Set.NumExperiments()
	st := in.harness.CacheStats()
	r.SimHits, r.SimMisses = st.SimHits, st.SimMisses
	r.checkResult(res.Mapping, res.RepMapping, res.RepSet, res.Evo.BestError, res.Evo.BestVolume)
	if score {
		if r.Quality, err = scoreQuality(ctx, in, res); err != nil {
			r.fail("quality: %v", err)
		}
	}
	return r
}

// scoreQuality scores the inferred mapping, and those of
// w.extraSearches further searches over the same representative set
// with their own seeds, on the held-out set. One search's held-out
// error varies with its seed by a third on a72-full; the extra searches
// let a run take the median of several without measuring again.
func scoreQuality(ctx context.Context, in *inputs, res *pmevo.Result) ([]quality, error) {
	opts := measure.DefaultOptions()
	opts.Seed = derive(in.seed, heldoutNoiseStream)
	h, err := measure.NewHarness(in.proc, opts)
	if err != nil {
		return nil, err
	}
	full := make([]portmap.Experiment, len(in.heldout))
	for i, e := range in.heldout {
		full[i] = in.toFull(e)
	}
	tps, err := h.MeasureAll(ctx, full)
	if err != nil {
		return nil, err
	}
	mape := func(m *portmap.Mapping) float64 {
		sum := 0.0
		for i, e := range in.heldout {
			sum += math.Abs(throughput.OfExperiment(m, e)-tps[i]) / tps[i]
		}
		return 100 * sum / float64(len(tps))
	}

	qs := []quality{{Davg: res.Evo.BestError, MAPE: mape(res.Mapping)}}
	for j := range in.w.extraSearches {
		eopts := in.cfg.Evo
		eopts.NumPorts = in.cfg.NumPorts
		eopts.Seed = derive(in.seed, extraSearchStream+j)
		er, err := evo.Run(ctx, res.RepSet, eopts)
		if err != nil {
			return nil, fmt.Errorf("extra search %d: %w", j, err)
		}
		qs = append(qs, quality{Davg: er.BestError, MAPE: mape(res.Classes.ExpandMapping(er.Best, res.Mapping.InstNames))})
	}
	return qs, nil
}

// tracedProcess rebuilds core.Infer's pipeline from the layers' public
// functions with a span around each call, then times short seeded
// samples of the hot layer functions. It writes the spans to tracePath
// and, when profilePath is set, a CPU profile of everything after set-up.
func tracedProcess(ctx context.Context, w workload, seed int64, tracePath, profilePath string) *report {
	r := &report{Layer: map[string]float64{}}
	rec := newRecorder(fmt.Sprintf("%s/seed-%d", w.name, seed))
	root := rec.start("perfbench.traced", 0)

	id := rec.start("setup", root)
	in, setupS, err := setup(w, seed)
	rec.end(id)
	if err != nil {
		r.fail("setup: %v", err)
		return r
	}
	r.SetupS = setupS

	if profilePath != "" {
		f, err := os.Create(profilePath)
		if err != nil {
			r.fail("cpu profile: %v", err)
			return r
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			r.fail("cpu profile: %v", err)
			return r
		}
		defer pprof.StopCPUProfile()
	}

	if set, repSet, ok := tracedPipeline(ctx, r, rec, root, in); ok {
		tracedSamples(ctx, r, rec, root, in, set, repSet)
	}
	rec.end(root)
	if n := rec.unclosed(); n > 0 {
		r.fail("%d spans left open", n)
	}
	if err := rec.write(tracePath, r.Layer); err != nil {
		r.fail("writing trace: %v", err)
	}
	return r
}

// genMark is one OnGeneration callback: when it fired and how many
// generations were complete.
type genMark struct {
	atNS int64
	done int
}

// tracedPipeline is core.Infer step by step: generate and measure,
// partition and project, evolve, expand.
func tracedPipeline(ctx context.Context, r *report, rec *recorder, root int, in *inputs) (set, repSet *exp.Set, ok bool) {
	pipe := rec.start("core.Infer", root)
	defer func() {
		if rec.spans[pipe-1].EndNS < 0 {
			rec.end(pipe)
		}
	}()

	tm := &timedMeasurer{inner: in.measurer(), rec: rec}
	tm.parent = rec.start("exp.GenerateAndMeasure", pipe)
	set, err := exp.GenerateAndMeasure(ctx, tm, in.sub.NumForms())
	generateS := rec.end(tm.parent)
	if err != nil {
		r.fail("measurement: %v", err)
		return nil, nil, false
	}
	st := in.harness.CacheStats()
	r.SimHits, r.SimMisses = st.SimHits, st.SimMisses
	r.Experiments = set.NumExperiments()
	r.MeasureS = generateS

	id := rec.start("congruence.Partition", pipe)
	classes, err := congruence.Partition(set, in.cfg.Epsilon)
	partitionS := rec.end(id)
	if err != nil {
		r.fail("congruence: %v", err)
		return nil, nil, false
	}
	id = rec.start("congruence.ProjectSet", pipe)
	repSet = classes.ProjectSet(set)
	partitionS += rec.end(id)

	opts := in.cfg.Evo
	opts.NumPorts = in.cfg.NumPorts
	var marks []genMark
	opts.OnGeneration = func(done int) { marks = append(marks, genMark{rec.now(), done}) }
	evoID := rec.start("evo.Run", pipe)
	evoStart := rec.spans[evoID-1].StartNS
	evoRes, err := evo.Run(ctx, repSet, opts)
	runS := rec.end(evoID)
	if err != nil {
		r.fail("evolution: %v", err)
		return nil, nil, false
	}
	var perGenMS []float64
	prevNS, prevDone := evoStart, 0
	for _, m := range marks {
		rec.add("evo.generation", evoID, prevNS, m.atNS)
		n := m.done - prevDone
		for range n {
			perGenMS = append(perGenMS, float64(m.atNS-prevNS)/1e6/float64(n))
		}
		prevNS, prevDone = m.atNS, m.done
	}
	evoEnd := rec.spans[evoID-1].EndNS
	rec.add("evo.local_search", evoID, prevNS, evoEnd)

	id = rec.start("congruence.ExpandMapping", pipe)
	names := make([]string, in.sub.NumForms())
	for _, f := range in.sub.Forms() {
		names[f.ID] = f.Name()
	}
	full := classes.ExpandMapping(evoRes.Best, names)
	full.PortNames = in.cfg.PortNames
	evoRes.Best.PortNames = in.cfg.PortNames
	expandS := rec.end(id)
	pipelineS := rec.end(pipe)
	r.SearchS = pipelineS - generateS
	r.InferS = pipelineS

	r.checkResult(full, evoRes.Best, repSet, evoRes.BestError, evoRes.BestVolume)

	requests := float64(st.SimHits + st.SimMisses)
	r.Layer["measure.batch_s"] = tm.batchS
	r.Layer["measure.exps_per_s"] = float64(tm.experiments) / tm.batchS
	r.Layer["measure.sim_requests"] = requests
	r.Layer["measure.sim_misses"] = float64(st.SimMisses)
	r.Layer["measure.sim_hit_ratio"] = float64(st.SimHits) / requests
	r.Layer["exp.generate_s"] = generateS - tm.batchS
	r.Layer["exp.experiments"] = float64(set.NumExperiments())
	r.Layer["congruence.partition_s"] = partitionS
	r.Layer["congruence.classes"] = float64(classes.NumClasses())
	r.Layer["evo.run_s"] = runS
	r.Layer["evo.generations"] = float64(evoRes.Generations)
	r.Layer["evo.evals"] = float64(evoRes.FitnessEvaluations)
	r.Layer["evo.evals_per_s"] = float64(evoRes.FitnessEvaluations) / runS
	r.Layer["evo.gen_ms_p50"] = quantile(perGenMS, 0.5)
	r.Layer["evo.gen_ms_p90"] = quantile(perGenMS, 0.9)
	r.Layer["evo.local_search_s"] = float64(evoEnd-prevNS) / 1e9
	r.Layer["core.expand_s"] = expandS
	r.Layer["core.pipeline_s"] = pipelineS
	return set, repSet, true
}

// Sample sizes of the traced process's layer probes.
const (
	buildSamples = 1000
	simSamples   = 128
	evalBatch    = 256
	minEvalS     = 0.25
	minKernelS   = 0.1
)

// tracedSamples times seeded samples of the layer functions the
// pipeline spends its time in, each outside any cache.
func tracedSamples(ctx context.Context, r *report, rec *recorder, root int, in *inputs, set, repSet *exp.Set) {
	samples := rec.start("samples", root)
	defer rec.end(samples)
	rng := rand.New(rand.NewSource(derive(in.seed, sampleStream)))

	exps := make([]portmap.Experiment, buildSamples)
	for i := range exps {
		exps[i] = in.toFull(set.Measurements[rng.Intn(len(set.Measurements))].Exp)
	}
	bodies := make([][]machine.Inst, len(exps))
	id := rec.start("measure.BuildLoop", samples)
	for i, e := range exps {
		body, _, err := in.harness.BuildLoop(e)
		if err != nil {
			rec.end(id)
			r.fail("BuildLoop: %v", err)
			return
		}
		bodies[i] = body
	}
	r.Layer["measure.build_us"] = rec.end(id) * 1e6 / float64(len(exps))

	mach, err := in.proc.Machine()
	if err != nil {
		r.fail("machine: %v", err)
		return
	}
	mopts := measure.DefaultOptions()
	id = rec.start("machine.SteadyStateCycles", samples)
	for _, body := range bodies[:simSamples] {
		if _, err := mach.SteadyStateCycles(body, mopts.WarmupIters, mopts.MeasureIters); err != nil {
			rec.end(id)
			r.fail("SteadyStateCycles: %v", err)
			return
		}
	}
	r.Layer["machine.sim_us"] = rec.end(id) * 1e6 / simSamples

	id = rec.start("engine.NewService", samples)
	svc, err := engine.NewService(repSet, engine.ServiceOptions{})
	rec.end(id)
	if err != nil {
		r.fail("engine: %v", err)
		return
	}
	randomOpts := portmap.RandomOptions{NumInsts: repSet.NumInsts, NumPorts: in.cfg.NumPorts, ThroughputHint: repSet.Individual}
	fits := make([]engine.Fitness, evalBatch)
	evals, evalS := 0, 0.0
	for evalS < minEvalS {
		cands := make([]*portmap.Mapping, evalBatch)
		for i := range cands {
			cands[i] = portmap.Random(rng, randomOpts)
		}
		id = rec.start("engine.EvaluateAll", samples)
		err := svc.EvaluateAll(ctx, cands, fits)
		evalS += rec.end(id)
		if err != nil {
			r.fail("EvaluateAll: %v", err)
			return
		}
		evals += evalBatch
	}
	r.Layer["engine.evals_per_s"] = float64(evals) / evalS
	r.Layer["engine.exp_ns"] = evalS * 1e9 / float64(evals*len(repSet.Measurements))

	m := portmap.Random(rng, portmap.RandomOptions{NumInsts: set.NumInsts, NumPorts: in.cfg.NumPorts, ThroughputHint: set.Individual})
	var pairs []portmap.Experiment
	for _, meas := range set.Measurements {
		if len(meas.Exp) == 2 {
			pairs = append(pairs, meas.Exp)
		}
	}
	for _, k := range []struct {
		kind string
		exps []portmap.Experiment
	}{
		{"single", exp.Singletons(set.NumInsts)},
		{"pair", pairs},
		{"len5", in.heldout},
	} {
		id = rec.start("throughput.OfExperiment/"+k.kind, samples)
		n, sum := 0, 0.0
		for rec.now()-rec.spans[id-1].StartNS < minKernelS*1e9 {
			for _, e := range k.exps {
				sum += throughput.OfExperiment(m, e)
			}
			n += len(k.exps)
		}
		r.Layer["throughput."+k.kind+"_ns"] = rec.end(id) * 1e9 / float64(n)
		if !(sum > 0) {
			r.fail("throughput of %s experiments: non-positive sum %g", k.kind, sum)
		}
	}
}

// peakRSSMiB returns the process's peak resident memory so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// parallel calls fn(i) for every i < n over GOMAXPROCS goroutines and
// returns when all calls have.
func parallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// quantile returns the q-quantile of xs by linear interpolation, or 0
// for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
