// Command pmevo-bench regenerates the tables and figures of the paper's
// evaluation (§5) against the simulated processors.
//
// Usage:
//
//	pmevo-bench -exp table1
//	pmevo-bench -exp table3 -scale default
//	pmevo-bench -exp figure8 -csv results/
//	pmevo-bench -exp engines -engine=lp
//	pmevo-bench -exp all -scale quick -json results/
//
// Experiments: table1, table2, table3, table4, figure6, figure7,
// figure8, engines, fitness, measure, machine, evo, all. Tables 2–4 and
// Figure 7 share the same inference pipelines and are computed together
// when any of them is requested. The evo experiment compares the
// island-model evolution loop against the single-population algorithm
// at an equal evaluation budget.
//
// -engine selects the throughput engine for the `engines` consistency
// dump; running it with -engine=lp and -engine=bottleneck must produce
// identical output (up to 1e-9) on the Table 1 configurations.
//
// All drivers of one invocation measure through one kernel-simulation
// cache (eval.Scale.SimCache). -cache-dir persists the measure
// experiment's caches: each of its fast runs loads the kernel cache and
// period hints from the directory and spills them back. A second
// invocation with the same -cache-dir reports disk-warm hit rates;
// results are bit-identical to cold runs (the caches hold pure
// functions of their keys).
//
// -json writes one machine-readable BENCH_<experiment>.json per
// experiment, so the performance trajectory of the repository can be
// tracked across changes. wall_seconds is the marginal cost of the
// experiment's own computation and rendering; computation shared
// between experiments (the inference suite behind tables 2-4 and
// figure 7) is reported once per record in the suite_seconds /
// accuracy_seconds metrics instead, so summing wall_seconds never
// multiple-counts it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pmevo/internal/engine"
	"pmevo/internal/eval"
)

// benchRecord is the schema of a BENCH_*.json file. WallSeconds is the
// experiment's marginal cost (see the package comment); shared suite
// costs live in Metrics.
type benchRecord struct {
	Experiment  string             `json:"experiment"`
	Scale       string             `json:"scale"`
	Seed        int64              `json:"seed"`
	Engine      string             `json:"engine,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	expFlag := flag.String("exp", "all", "experiment to run: table1|table2|table3|table4|figure6|figure7|figure8|engines|fitness|measure|machine|evo|all")
	scaleFlag := flag.String("scale", "default", "experiment scale: quick|default|full")
	engineFlag := flag.String("engine", "bottleneck",
		"throughput engine for the engines consistency dump: "+strings.Join(engine.Names(), "|"))
	csvDir := flag.String("csv", "", "directory to write CSV result files into (optional)")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_*.json records into (optional)")
	cacheDir := flag.String("cache-dir", "",
		"directory for the persistent kernel-simulation cache and period hints of -exp measure; each fast run loads it and spills back to it")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var scale eval.Scale
	switch *scaleFlag {
	case "quick":
		scale = eval.QuickScale()
	case "default":
		scale = eval.DefaultScale()
	case "full":
		scale = eval.FullScale()
	default:
		fatalf("unknown scale %q (want quick, default, or full)", *scaleFlag)
	}
	scale.Seed = *seed

	progress := func(msg string) { fmt.Fprintf(os.Stderr, "[pmevo-bench] %s\n", msg) }
	ctx := context.Background()

	// record writes one BENCH_*.json; engineName is empty for
	// experiments the -engine flag does not influence.
	record := func(name, engineName string, start time.Time, metrics map[string]float64) {
		writeBenchJSON(*jsonDir, benchRecord{
			Experiment:  name,
			Scale:       *scaleFlag,
			Seed:        *seed,
			Engine:      engineName,
			WallSeconds: time.Since(start).Seconds(),
			Metrics:     metrics,
		})
	}

	want := map[string]bool{}
	switch *expFlag {
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "table4", "figure6", "figure7", "figure8", "engines", "fitness", "measure", "machine", "evo"} {
			want[e] = true
		}
	case "table1", "table2", "table3", "table4", "figure6", "figure7", "figure8", "figure8a", "figure8b", "ablation", "engines", "fitness", "measure", "machine", "evo":
		want[*expFlag] = true
	default:
		fatalf("unknown experiment %q", *expFlag)
	}

	if want["table1"] {
		start := time.Now()
		fmt.Println(eval.Table1())
		record("table1", "", start, nil)
	}

	if want["engines"] {
		progress(fmt.Sprintf("running engine consistency dump (engine=%s)", *engineFlag))
		start := time.Now()
		res, err := eval.RunEngineCheck(*engineFlag, *seed)
		if err != nil {
			fatalf("engines: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "engines.csv", res.WriteCSV)
		record("engines", *engineFlag, start, map[string]float64{"experiments": float64(len(res.Lines))})
	}

	if want["fitness"] {
		progress("running fitness-evaluation benchmark")
		start := time.Now()
		res, err := eval.RunFitnessBench(ctx, scale)
		if err != nil {
			fatalf("fitness: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "fitness.csv", res.WriteCSV)
		record("fitness", "", start, map[string]float64{
			"evals_per_sec":      res.EvalsPerSec,
			"evaluations":        float64(res.Evaluations),
			"delta_evals":        float64(res.DeltaEvals),
			"delta_exps_skipped": float64(res.DeltaExpsSkipped),
		})
	}

	if want["measure"] {
		progress("running measurement benchmark (fast path vs brute-force simulation)")
		start := time.Now()
		res, err := eval.RunMeasureBench(ctx, scale, *cacheDir, progress)
		if err != nil {
			fatalf("measure: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "measure.csv", res.WriteCSV)
		metrics := map[string]float64{"speedup": res.Speedup()}
		var warmHits float64
		for _, a := range res.Archs {
			metrics["seconds_fast_"+a.Arch] = a.Fast.Seconds
			metrics["seconds_baseline_"+a.Arch] = a.Baseline.Seconds
			metrics["speedup_"+a.Arch] = a.Speedup()
			metrics["meas_per_sec_"+a.Arch] = a.Fast.PerSec
			metrics["sim_hits_"+a.Arch] = float64(a.Fast.SimHits)
			metrics["sim_misses_"+a.Arch] = float64(a.Fast.SimMisses)
			metrics["sim_warm_hits_"+a.Arch] = float64(a.Fast.SimWarmHits)
			metrics["experiments_"+a.Arch] = float64(a.Experiments)
			warmHits += float64(a.Fast.SimWarmHits)
		}
		metrics["sim_warm_hits"] = warmHits
		record("measure", "", start, metrics)
	}

	if want["machine"] {
		progress("running simulator-core benchmark (event-driven vs cycle-by-cycle stepping)")
		start := time.Now()
		res, err := eval.RunMachineBench(scale)
		if err != nil {
			fatalf("machine: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "machine.csv", res.WriteCSV)
		metrics := map[string]float64{
			"speedup_latency_min": res.MinSpeedup("latency"),
			"speedup_divider_min": res.MinSpeedup("divider"),
			"speedup_dense_min":   res.MinSpeedup("dense"),
		}
		for _, a := range res.Archs {
			for _, k := range a.Kernels {
				metrics["speedup_"+k.Kernel+"_"+a.Arch] = k.Speedup()
				metrics["ns_per_iter_"+k.Kernel+"_"+a.Arch] = k.FastNsPerIter
				metrics["cycles_"+k.Kernel+"_"+a.Arch] = float64(k.Cycles)
				metrics["skipped_cycles_"+k.Kernel+"_"+a.Arch] = float64(k.SkippedCycles)
			}
		}
		record("machine", "", start, metrics)
	}

	if want["evo"] {
		progress("running evolution-loop benchmark (island model vs single population)")
		start := time.Now()
		res, err := eval.RunEvoBench(ctx, scale)
		if err != nil {
			fatalf("evo: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "evo.csv", res.WriteCSV)
		record("evo", "", start, map[string]float64{
			"speedup":               res.Speedup(),
			"islands":               float64(res.Islands),
			"seconds_single":        res.Single.Seconds,
			"seconds_islands":       res.Island.Seconds,
			"evaluations_single":    float64(res.Single.Evaluations),
			"evaluations_islands":   float64(res.Island.Evaluations),
			"evals_per_sec_single":  res.Single.EvalsPerSec,
			"evals_per_sec_islands": res.Island.EvalsPerSec,
			"generations_single":    float64(res.Single.Generations),
			"generations_islands":   float64(res.Island.Generations),
			"best_error_single":     res.Single.BestError,
			"best_error_islands":    res.Island.BestError,
		})
	}

	if want["figure6"] {
		progress("running Figure 6 sweep")
		start := time.Now()
		res, err := eval.RunFigure6(ctx, scale)
		if err != nil {
			fatalf("figure 6: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "figure6.csv", res.WriteCSV)
		metrics := map[string]float64{}
		for i, l := range res.Lengths {
			metrics[fmt.Sprintf("mape_uopsinfo_len%d", l)] = res.MAPEUopsInfo[i]
			metrics[fmt.Sprintf("mape_iaca_len%d", l)] = res.MAPEIACA[i]
		}
		record("figure6", "", start, metrics)
	}

	if want["table2"] || want["table3"] || want["table4"] || want["figure7"] {
		suiteStart := time.Now()
		suite, err := eval.NewSuite(ctx, scale, progress)
		if err != nil {
			fatalf("pipeline suite: %v", err)
		}
		suiteSeconds := time.Since(suiteStart).Seconds()
		if want["table2"] {
			start := time.Now()
			rows := suite.Table2()
			fmt.Println(eval.RenderTable2(rows))
			metrics := map[string]float64{"suite_seconds": suiteSeconds}
			for _, r := range rows {
				metrics["inference_seconds_"+r.Arch] = r.InferenceTime.Seconds()
				metrics["congruent_pct_"+r.Arch] = r.CongruentPct
			}
			record("table2", "", start, metrics)
		}
		if want["table3"] || want["table4"] || want["figure7"] {
			accStart := time.Now()
			acc, err := suite.Accuracy(ctx, progress)
			if err != nil {
				fatalf("accuracy: %v", err)
			}
			// The accuracy computation is shared by the three outputs;
			// each record times only its own rendering on top of the
			// shared suite/accuracy metrics.
			metrics := map[string]float64{
				"suite_seconds":    suiteSeconds,
				"accuracy_seconds": time.Since(accStart).Seconds(),
			}
			for _, row := range acc.Rows {
				metrics["mape_"+row.Arch+"_"+row.Tool] = row.MAPE
			}
			if want["table3"] {
				start := time.Now()
				fmt.Println(acc.RenderTable3())
				record("table3", "", start, metrics)
			}
			if want["table4"] {
				start := time.Now()
				fmt.Println(acc.RenderTable4())
				record("table4", "", start, metrics)
			}
			if want["figure7"] {
				start := time.Now()
				fmt.Println(acc.RenderFigure7())
				record("figure7", "", start, metrics)
			}
			writeCSV(*csvDir, "accuracy.csv", acc.WriteCSV)
		}
	}

	if want["ablation"] {
		progress("running experiment-design ablation")
		start := time.Now()
		res, err := eval.RunExperimentDesignAblation(ctx, scale, 3)
		if err != nil {
			fatalf("ablation: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "ablation.csv", res.WriteCSV)
		record("ablation", "", start, nil)
	}

	if want["figure8"] || want["figure8a"] || want["figure8b"] {
		progress("running Figure 8 sweeps")
		start := time.Now()
		res, err := eval.RunFigure8(scale)
		if err != nil {
			fatalf("figure 8: %v", err)
		}
		fmt.Println(res.Render())
		writeCSV(*csvDir, "figure8.csv", res.WriteCSV)
		metrics := map[string]float64{}
		if n := len(res.PortSweep); n > 0 {
			last := res.PortSweep[n-1]
			metrics["bottleneck_sec_maxports"] = last.BottleneckSec
			metrics["lp_sec_maxports"] = last.LPSec
		}
		record("figure8", "", start, metrics)
	}
}

func writeBenchJSON(dir string, rec benchRecord) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, "BENCH_"+rec.Experiment+".json")
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "[pmevo-bench] wrote %s\n", path)
}

func writeCSV(dir, name string, write func(w io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fatalf("create %s: %v", path, err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "[pmevo-bench] wrote %s\n", path)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pmevo-bench: "+format+"\n", args...)
	os.Exit(1)
}
