// Command perfbench is the end-to-end and per-layer benchmark of
// pmevo.Infer. It runs one workload for a time budget, each inference in
// a fresh worker process so that every timed repetition starts with cold
// measurement caches, checks every output, and prints one JSON result as
// the last line of standard output. README.md explains the workloads and
// the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload zen-search --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"infer_s", "s"},
	{"measure_s", "s"},
	{"search_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"train_davg_pct", "%"},
	{"heldout_mape_pct", "%"},
}

var perLayerMetrics = []metricDef{
	{"measure.batch_s", "s"},
	{"measure.exps_per_s", "1/s"},
	{"measure.build_us", "us"},
	{"measure.sim_requests", "count"},
	{"measure.sim_misses", "count"},
	{"measure.sim_hit_ratio", "ratio"},
	{"machine.sim_us", "us"},
	{"exp.generate_s", "s"},
	{"exp.experiments", "count"},
	{"congruence.partition_s", "s"},
	{"congruence.classes", "count"},
	{"engine.evals_per_s", "1/s"},
	{"engine.exp_ns", "ns"},
	{"throughput.single_ns", "ns"},
	{"throughput.pair_ns", "ns"},
	{"throughput.len5_ns", "ns"},
	{"evo.run_s", "s"},
	{"evo.generations", "count"},
	{"evo.evals", "count"},
	{"evo.evals_per_s", "1/s"},
	{"evo.gen_ms_p50", "ms"},
	{"evo.gen_ms_p90", "ms"},
	{"evo.local_search_s", "s"},
	{"core.expand_s", "s"},
	{"core.pipeline_s", "s"},
	{"trace.overhead_s", "s"},
}

// outDir receives the traced processes' span files and CPU profiles.
const outDir = ".bench_build/out"

const (
	// hardStop ends a run's worker processes if they have not finished,
	// well inside the three minutes a run may take.
	hardStop = 170 * time.Second
	// lastStart is the latest point at which another repetition starts.
	lastStart = 110 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: zen-search, a72-full, skl-islands, or all")
	seed := flag.Int64("seed", 1, "seed from which the run's inputs are made")
	seconds := flag.Float64("seconds", 20, "time budget of the run in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced processes")
	cpuProfile := flag.Bool("cpuprofile", false, "write a CPU profile of each traced process into "+outDir)
	worker := flag.String("worker", "", "run as a worker process: infer or trace (set by the parent process)")
	workerTrace := flag.String("worker-trace", "", "span file of a trace worker")
	workerProfile := flag.String("worker-profile", "", "CPU profile file of a trace worker")
	workerQuality := flag.Bool("worker-quality", true, "score an infer worker's result quality")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()

	if *worker != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		var r *report
		switch *worker {
		case "infer":
			r = inferProcess(ctx, w, *seed, *workerQuality)
		case "trace":
			r = tracedProcess(ctx, w, *seed, *workerTrace, *workerProfile)
		default:
			fatal(fmt.Errorf("unknown worker kind %q", *worker))
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatal(err)
		}
		return
	}

	d := runner{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, profile: *cpuProfile}
	var res *result
	var err error
	if *workloadName == "all" {
		res, err = d.runAll(ctx)
	} else {
		var w workload
		if w, err = workloadByName(*workloadName); err != nil {
			fatal(err)
		}
		res, err = d.run(ctx, w)
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runner runs worker processes for one workload and aggregates them.
type runner struct {
	seed    int64
	seconds float64
	traced  bool
	profile bool
}

// outcome is one finished worker process.
type outcome struct {
	rep   *report
	wallS float64
}

// runAll runs every workload in turn, each with the full time budget,
// and reports every metric under "<workload>.<metric>".
func (d runner) runAll(ctx context.Context) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		r, err := d.run(ctx, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, m := range r.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	return all, nil
}

// run repeats cold inferences (and, when traced, traced pipelines) until
// the time budget is spent, checks each, and aggregates medians.
// Repetition i uses the workload's sub-seed i mod w.subSeeds, so an
// untraced run covers every sub-seed once and then repeats the first,
// which the same-seed check needs.
func (d runner) run(ctx context.Context, w workload) (*result, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, hardStop)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	minRounds := w.subSeeds + 1
	if d.traced {
		minRounds = 1
	}

	res := &result{Metrics: map[string]metric{}}
	refs := make([]*report, w.subSeeds) // first successful inference per sub-seed
	var infers, traces []outcome
	var rounds []float64
	check := func(o outcome, err error, kind string, seed int64, ref *report) bool {
		res.Attempted++
		problems := []string(nil)
		if err != nil {
			problems = append(problems, err.Error())
		} else {
			problems = append(problems, o.rep.Failures...)
			problems = append(problems, coldStartProblems(o.rep)...)
			if ref != nil {
				problems = append(problems, sameResultProblems(ref, o.rep)...)
			}
		}
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d: FAILED: %s\n", w.name, kind, seed, p)
		}
		if len(problems) > 0 {
			res.Failed++
			return false
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d: %.3fs wall, infer %.3fs (measure %.3fs, search %.3fs), Davg %.4f%%, peak RSS %.1f MiB\n",
			w.name, kind, seed, o.wallS, o.rep.InferS, o.rep.MeasureS, o.rep.SearchS, 100*o.rep.BestError, o.rep.PeakRSSMiB)
		return true
	}

	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minRounds && elapsed+median(rounds) > d.seconds {
			break
		}
		if elapsed > lastStart.Seconds() {
			if i < minRounds {
				return nil, fmt.Errorf("only %d of %d repetitions started within %v", i, minRounds, lastStart)
			}
			break
		}
		t0 := time.Now()
		k := i % w.subSeeds
		seed := subSeed(d.seed, k)
		// Quality is scored once per sub-seed, and never in a traced
		// run, which reports no quality metric.
		o, err := d.worker(ctx, exe, w, "infer", seed, i, !d.traced && refs[k] == nil)
		if check(o, err, "infer", seed, refs[k]) {
			infers = append(infers, o)
			if refs[k] == nil {
				refs[k] = o.rep
			}
		}
		if d.traced && refs[k] != nil {
			o, err := d.worker(ctx, exe, w, "trace", seed, i, false)
			if check(o, err, "trace", seed, refs[k]) {
				traces = append(traces, o)
			}
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	res.Correct = res.Failed == 0
	if len(infers) == 0 || (d.traced && len(traces) == 0) {
		return nil, errors.New("no repetition succeeded")
	}

	if !d.traced {
		var inferS, measureS, searchS, setupS, rss, davg, mape []float64
		for _, o := range infers {
			inferS = append(inferS, o.rep.InferS)
			measureS = append(measureS, o.rep.MeasureS)
			searchS = append(searchS, o.rep.SearchS)
			setupS = append(setupS, o.rep.SetupS...)
			rss = append(rss, o.rep.PeakRSSMiB)
		}
		for _, r := range refs {
			if r == nil {
				continue
			}
			for _, q := range r.Quality {
				davg = append(davg, 100*q.Davg)
				mape = append(mape, q.MAPE)
			}
		}
		values := map[string]float64{
			"infer_s":          median(inferS),
			"measure_s":        median(measureS),
			"search_s":         median(searchS),
			"setup_s":          median(setupS),
			"peak_rss_mb":      median(rss),
			"train_davg_pct":   median(davg),
			"heldout_mape_pct": median(mape),
		}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		return res, nil
	}

	var pipeline, infer []float64
	for _, o := range traces {
		pipeline = append(pipeline, o.rep.Layer["core.pipeline_s"])
	}
	for _, o := range infers {
		infer = append(infer, o.rep.InferS)
	}
	for _, m := range perLayerMetrics {
		var xs []float64
		for _, o := range traces {
			xs = append(xs, o.rep.Layer[m.name])
		}
		v := median(xs)
		if m.name == "trace.overhead_s" {
			v = median(pipeline) - median(infer)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// worker runs one worker process and decodes its report.
func (d runner) worker(ctx context.Context, exe string, w workload, kind string, seed int64, i int, quality bool) (outcome, error) {
	args := []string{"-worker", kind, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-worker-quality=" + strconv.FormatBool(quality)}
	if kind == "trace" {
		base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%d", w.name, d.seed, i))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return outcome{}, err
		}
		args = append(args, "-worker-trace", base+".trace.json")
		if d.profile {
			args = append(args, "-worker-profile", base+".cpu.pprof")
		}
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	o := outcome{wallS: time.Since(t0).Seconds()}
	if err != nil {
		return o, fmt.Errorf("%s worker: %w", kind, err)
	}
	o.rep = new(report)
	if err := json.Unmarshal(stdout.Bytes(), o.rep); err != nil {
		return o, fmt.Errorf("%s worker output: %w", kind, err)
	}
	return o, nil
}

// coldStartProblems checks that the process measured from cold caches:
// every measured experiment asked the simulation cache once, and at
// least one request was simulated.
func coldStartProblems(r *report) []string {
	if r.SimHits+r.SimMisses != int64(r.Experiments) || r.SimMisses == 0 {
		return []string{fmt.Sprintf("not a cold start: %d sim hits + %d misses for %d experiments",
			r.SimHits, r.SimMisses, r.Experiments)}
	}
	return nil
}

// sameResultProblems checks that a run with the same seed reproduced the
// reference result bit for bit.
func sameResultProblems(ref, r *report) []string {
	var out []string
	if r.BestError != ref.BestError || r.BestVolume != ref.BestVolume {
		out = append(out, fmt.Sprintf("BestError/BestVolume %v/%d differ from %v/%d with the same seed",
			r.BestError, r.BestVolume, ref.BestError, ref.BestVolume))
	}
	if r.Fingerprint != ref.Fingerprint || !bytes.Equal(r.Mapping, ref.Mapping) {
		out = append(out, fmt.Sprintf("mapping %s differs from %s with the same seed", r.Fingerprint, ref.Fingerprint))
	}
	return out
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
