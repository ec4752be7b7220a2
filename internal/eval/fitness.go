package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// FitnessBenchResult reports the fitness-evaluation throughput of the
// evolutionary hot loop: one timed inference run (evolution plus greedy
// local search) on a synthetic hidden machine, in the production
// configuration — duplicate-candidate skip and delta-scored local
// search over the engine's subset-sum tables.
type FitnessBenchResult struct {
	NumInsts    int
	NumPorts    int
	Experiments int
	Population  int
	Generations int

	Seconds          float64
	Evaluations      int
	EvalsPerSec      float64
	DeltaEvals       int64
	DeltaExpsSkipped int64
	BestError        float64
}

// fitnessBenchInsts/Ports fix the synthetic machine of the fitness
// benchmark (the ablation-scale hidden processor).
const (
	fitnessBenchInsts = 12
	fitnessBenchPorts = 8
)

type modelMeasurer struct{ m *portmap.Mapping }

func (mm modelMeasurer) Measure(e portmap.Experiment) (float64, error) {
	return throughput.OfExperiment(mm.m, e), nil
}

// RunFitnessBench measures the population fitness loop at the given
// scale: one evo.Run on a hidden random machine.
func RunFitnessBench(ctx context.Context, scale Scale) (*FitnessBenchResult, error) {
	rng := rand.New(rand.NewSource(scale.Seed + 4))
	hidden := portmap.Random(rng, portmap.RandomOptions{
		NumInsts: fitnessBenchInsts, NumPorts: fitnessBenchPorts, MaxUops: 2,
	})
	set, err := exp.GenerateAndMeasure(ctx, modelMeasurer{hidden}, fitnessBenchInsts)
	if err != nil {
		return nil, fmt.Errorf("fitness bench: %w", err)
	}
	start := time.Now()
	r, err := evo.Run(ctx, set, evo.Options{
		PopulationSize:  scale.Population,
		MaxGenerations:  scale.MaxGenerations,
		NumPorts:        fitnessBenchPorts,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := &FitnessBenchResult{
		NumInsts:         fitnessBenchInsts,
		NumPorts:         fitnessBenchPorts,
		Experiments:      set.NumExperiments(),
		Population:       scale.Population,
		Generations:      scale.MaxGenerations,
		Seconds:          time.Since(start).Seconds(),
		Evaluations:      r.FitnessEvaluations,
		DeltaEvals:       r.CacheStats.DeltaEvaluations,
		DeltaExpsSkipped: r.CacheStats.DeltaExperimentsSkipped,
		BestError:        r.BestError,
	}
	if res.Seconds > 0 {
		res.EvalsPerSec = float64(r.FitnessEvaluations) / res.Seconds
	}
	return res, nil
}

// Render prints the benchmark in a human-readable form.
func (r *FitnessBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fitness-evaluation throughput (hidden %d-inst/%d-port machine, %d experiments, p=%d, %d generations)\n",
		r.NumInsts, r.NumPorts, r.Experiments, r.Population, r.Generations)
	fmt.Fprintf(&b, "\n%.3fs  %d evals  %.0f evals/s  delta=%d skipped=%d  Davg = %.6g\n",
		r.Seconds, r.Evaluations, r.EvalsPerSec, r.DeltaEvals, r.DeltaExpsSkipped, r.BestError)
	return b.String()
}

// WriteCSV emits the timed run for machine comparison.
func (r *FitnessBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "seconds,evaluations,evals_per_sec,delta_evals,delta_exps_skipped"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%.6f,%d,%.1f,%d,%d\n",
		r.Seconds, r.Evaluations, r.EvalsPerSec, r.DeltaEvals, r.DeltaExpsSkipped)
	return err
}
