package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"pmevo/internal/exp"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/predictors"
	"pmevo/internal/stats"
)

// Suite bundles the PMEvo inference runs for all three processors so
// Table 2, Tables 3/4 and Figure 7 share the same (expensive) pipelines.
type Suite struct {
	Scale Scale
	Runs  []*PipelineRun // SKL, ZEN, A72
}

// NewSuite runs the inference pipeline on all three processors.
// Cancellation aborts the suite at the first interrupted pipeline
// (partial per-processor results are not useful for the cross-tool
// tables, so no partial Suite is returned).
func NewSuite(ctx context.Context, scale Scale, progress func(string)) (*Suite, error) {
	if progress == nil {
		progress = func(string) {}
	}
	s := &Suite{Scale: scale}
	for _, name := range []string{"SKL", "ZEN", "A72"} {
		progress(fmt.Sprintf("running PMEvo pipeline on %s", name))
		run, err := RunPipeline(ctx, name, scale)
		if err != nil {
			return nil, err
		}
		s.Runs = append(s.Runs, run)
	}
	return s, nil
}

// Table2Row is one column of paper Table 2 (the table is transposed
// here: one row per architecture).
type Table2Row struct {
	Arch string
	// BenchmarkingHours is the simulated wall-clock cost of the §4.2
	// measurements on the real machine.
	BenchmarkingHours float64
	// InferenceTime is the actual wall-clock inference time of this
	// reproduction run.
	InferenceTime time.Duration
	// CongruentPct is the percentage of forms eliminated by congruence
	// filtering.
	CongruentPct float64
	// NumUops is the number of distinct µops in the inferred mapping.
	NumUops int
}

// Table2 derives the mapping-characteristics table from the suite.
func (s *Suite) Table2() []Table2Row {
	rows := make([]Table2Row, 0, len(s.Runs))
	for _, run := range s.Runs {
		rows = append(rows, Table2Row{
			Arch:              run.Proc.Name,
			BenchmarkingHours: run.Harness.SimulatedBenchmarkingCost() / 3600,
			InferenceTime:     run.Result.InferenceTime + run.Result.MeasurementTime,
			CongruentPct:      run.Result.CongruentFraction() * 100,
			NumUops:           run.Result.NumUops(),
		})
	}
	return rows
}

// RenderTable2 formats the Table 2 reproduction.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2. PMEvo mapping characteristics\n\n")
	fmt.Fprintf(&b, "%-22s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.Arch)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "benchmarking time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", fmt.Sprintf("%.1fh", r.BenchmarkingHours))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "inference time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", r.InferenceTime.Round(time.Millisecond))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "insns found congruent")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s", fmt.Sprintf("%.0f%%", r.CongruentPct))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-22s", "number of µops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d", r.NumUops)
	}
	b.WriteByte('\n')
	return b.String()
}

// AccuracyRow is one (architecture, tool) accuracy result of Tables 3
// and 4, with the Figure 7 heat map.
type AccuracyRow struct {
	Arch string
	Tool string
	MAPE float64
	PCC  float64
	SCC  float64
	Heat *stats.Heatmap
	N    int
}

// AccuracyResult carries all accuracy rows.
type AccuracyResult struct {
	Rows []AccuracyRow
}

// Accuracy measures the benchmark sets and evaluates every applicable
// predictor per architecture (§5.3): on SKL all five tools, on ZEN and
// A72 only PMEvo and llvm-mca (the others are Intel-only or require
// per-port counters).
func (s *Suite) Accuracy(ctx context.Context, progress func(string)) (*AccuracyResult, error) {
	if progress == nil {
		progress = func(string) {}
	}
	out := &AccuracyResult{}
	for _, run := range s.Runs {
		proc := run.Proc
		progress(fmt.Sprintf("benchmarking %s accuracy set", proc.Name))

		// A fresh harness keeps Table 2's measurement accounting clean.
		mopts := measure.DefaultOptions()
		mopts.Seed = s.Scale.Seed + 100
		mopts.SimCache = s.Scale.SimCache
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			return nil, err
		}

		rng := rand.New(rand.NewSource(s.Scale.Seed + 53))
		bench := exp.RandomBenchmarkSet(rng, run.SubISA.NumForms(),
			s.Scale.BenchmarkExperiments, s.Scale.BenchmarkLength)

		full := make([]portmap.Experiment, len(bench))
		for i, e := range bench {
			full[i] = translateExperiment(e, run.FormIDs)
		}
		meas, err := h.MeasureAll(ctx, full)
		if err != nil {
			return nil, err
		}

		type tool struct {
			name    string
			subset  bool // predicts in subset instruction space
			predict predictors.Predictor
		}
		tools := []tool{
			{"PMEvo", true, predictors.FromMapping("PMEvo", run.Result.Mapping)},
			{"llvm-mca", false, predictors.LLVMMCA(proc)},
		}
		if proc.HasPortCounters {
			ui, err := predictors.UopsInfo(proc)
			if err != nil {
				return nil, err
			}
			tools = append(tools, tool{"uops.info", false, ui})
		}
		if proc.Manufacturer == "Intel" {
			ia, err := predictors.IACA(proc)
			if err != nil {
				return nil, err
			}
			tools = append(tools, tool{"IACA", false, ia})
			progress("training Ithemal baseline")
			iopts := predictors.DefaultIthemalOptions()
			iopts.TrainingBlocks = s.Scale.IthemalBlocks
			iopts.Seed = s.Scale.Seed
			ith, err := predictors.TrainIthemal(proc, iopts)
			if err != nil {
				return nil, err
			}
			tools = append(tools, tool{"Ithemal", false, ith})
		}

		// Heat map extent: a round bound covering the measured range
		// (the paper uses 35 cycles for most panels).
		maxMeas := 0.0
		for _, m := range meas {
			maxMeas = math.Max(maxMeas, m)
		}
		heatMax := math.Ceil(maxMeas/5) * 5
		if heatMax < 5 {
			heatMax = 5
		}

		for _, tl := range tools {
			es := full
			if tl.subset {
				es = bench
			}
			pred := make([]float64, len(bench))
			if err := predictors.PredictAll(tl.predict, es, pred); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", tl.name, proc.Name, err)
			}
			out.Rows = append(out.Rows, AccuracyRow{
				Arch: proc.Name,
				Tool: tl.name,
				MAPE: stats.MAPE(pred, meas),
				PCC:  stats.Pearson(meas, pred),
				SCC:  stats.Spearman(meas, pred),
				Heat: stats.BinHeatmap(meas, pred, 35, heatMax),
				N:    len(bench),
			})
		}
	}
	return out, nil
}

// rowsFor filters rows by architecture.
func (r *AccuracyResult) rowsFor(arch string) []AccuracyRow {
	var out []AccuracyRow
	for _, row := range r.Rows {
		if row.Arch == arch {
			out = append(out, row)
		}
	}
	return out
}

// RenderTable3 formats the SKL accuracy comparison (paper Table 3).
func (r *AccuracyResult) RenderTable3() string {
	var b strings.Builder
	b.WriteString("Table 3. Prediction accuracy for port-mapping-bound experiments on SKL\n\n")
	b.WriteString("tool        MAPE    Pearson CC  Spearman CC\n")
	order := []string{"PMEvo", "uops.info", "IACA", "llvm-mca", "Ithemal"}
	rows := r.rowsFor("SKL")
	for _, name := range order {
		for _, row := range rows {
			if row.Tool == name {
				fmt.Fprintf(&b, "%-10s %5.1f%%  %10.2f  %11.2f\n",
					row.Tool, row.MAPE, row.PCC, row.SCC)
			}
		}
	}
	return b.String()
}

// RenderTable4 formats the ZEN and A72 comparison (paper Table 4).
func (r *AccuracyResult) RenderTable4() string {
	var b strings.Builder
	b.WriteString("Table 4. Prediction accuracy for port-mapping-bound experiments on ZEN and A72\n\n")
	b.WriteString("tool               MAPE    Pearson CC  Spearman CC\n")
	for _, arch := range []string{"ZEN", "A72"} {
		for _, name := range []string{"PMEvo", "llvm-mca"} {
			for _, row := range r.rowsFor(arch) {
				if row.Tool == name {
					fmt.Fprintf(&b, "%-16s  %5.1f%%  %10.2f  %11.2f\n",
						fmt.Sprintf("%s (%s)", row.Tool, arch), row.MAPE, row.PCC, row.SCC)
				}
			}
		}
	}
	return b.String()
}

// RenderFigure7 draws all nine heat maps of paper Figure 7.
func (r *AccuracyResult) RenderFigure7() string {
	var b strings.Builder
	b.WriteString("Figure 7. Prediction accuracy heat maps (predicted vs measured cycles)\n\n")
	panels := []struct{ arch, tool string }{
		{"SKL", "PMEvo"}, {"ZEN", "PMEvo"}, {"A72", "PMEvo"},
		{"SKL", "llvm-mca"}, {"ZEN", "llvm-mca"}, {"A72", "llvm-mca"},
		{"SKL", "uops.info"}, {"SKL", "IACA"}, {"SKL", "Ithemal"},
	}
	for _, p := range panels {
		for _, row := range r.Rows {
			if row.Arch == p.arch && row.Tool == p.tool {
				fmt.Fprintf(&b, "--- %s on %s (MAPE %.1f%%) ---\n", row.Tool, row.Arch, row.MAPE)
				b.WriteString(row.Heat.Render())
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// WriteCSV emits all accuracy rows.
func (r *AccuracyResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "arch,tool,n,mape_pct,pearson,spearman"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.4f,%.4f,%.4f\n",
			row.Arch, row.Tool, row.N, row.MAPE, row.PCC, row.SCC); err != nil {
			return err
		}
	}
	return nil
}
