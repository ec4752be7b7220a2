package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// EvoBenchResult reports the island-model evolution benchmark: the same
// inference workload run with the single-population configuration
// (Islands=1) and with the island-model configuration (Islands=N
// concurrent sub-populations sharing one fitness service), at an equal
// evaluation budget (same PopulationSize and MaxGenerations, so both
// runs may perform at most Population×(MaxGenerations+1) evaluations;
// either may use less through convergence and the duplicate-candidate
// skip).
//
// Local search is disabled in both runs: it is a serial final phase
// identical in either configuration (its cost is measured by the
// fitness benchmark), and including it would only dilute the
// evolution-loop comparison this benchmark isolates.
//
// The two runs search with different population layouts, so their
// results are not expected to be bit-identical — both Davg values are
// reported. The determinism and bit-exactness contracts of the island
// model itself (one island is the single-population algorithm of §4.4,
// results are independent of Workers) are pinned by the internal/evo
// tests, not here.
type EvoBenchResult struct {
	NumInsts    int
	NumPorts    int
	Experiments int
	Population  int
	Generations int

	// Islands is the sub-population count of the island run;
	// MigrationInterval/MigrationCount its (defaulted) exchange knobs.
	Islands           int
	MigrationInterval int
	MigrationCount    int

	// Single is the one-island configuration, Island the sharded one.
	Single EvoBenchRun
	Island EvoBenchRun
}

// EvoBenchRun is one timed evolution run.
type EvoBenchRun struct {
	Seconds     float64
	Evaluations int
	EvalsPerSec float64
	Generations int
	BestError   float64
	BestVolume  int
}

// evoBenchInsts/Ports fix the synthetic hidden machine of the evolution
// benchmark. It is deliberately narrow: per-candidate evaluation on a
// small machine is cheap, so the serial per-generation phases of the
// single-population algorithm (recombination, selection, dedup priming)
// carry a large share of the runtime — exactly the share the island
// model shards. Wide machines bury that share under evaluation work the
// single-population loop already parallelizes, and the fitness benchmark
// covers raw evaluation throughput separately.
//
// evoBenchPopFactor amplifies scale.Population for this benchmark only,
// so each timed run lasts long enough for stable wall-clock numbers even
// at QuickScale (the unamplified population 80 finishes in milliseconds on the narrow
// machine).
const (
	evoBenchInsts     = 6
	evoBenchPorts     = 3
	evoBenchPopFactor = 50
)

// RunEvoBench measures the evolution loop at the given scale, single
// population vs island model. scale.Islands selects the island count
// (0: GOMAXPROCS, floored at 2 so the island path is always exercised).
func RunEvoBench(ctx context.Context, scale Scale) (*EvoBenchResult, error) {
	rng := rand.New(rand.NewSource(scale.Seed + 6))
	hidden := portmap.Random(rng, portmap.RandomOptions{
		NumInsts: evoBenchInsts, NumPorts: evoBenchPorts, MaxUops: 2,
	})
	set, err := exp.GenerateAndMeasure(ctx, modelMeasurer{hidden}, evoBenchInsts)
	if err != nil {
		return nil, fmt.Errorf("evo bench: %w", err)
	}
	islands := scale.Islands
	if islands <= 0 {
		islands = runtime.GOMAXPROCS(0)
	}
	if islands < 2 {
		islands = 2
	}
	population := scale.Population * evoBenchPopFactor
	res := &EvoBenchResult{
		NumInsts:    evoBenchInsts,
		NumPorts:    evoBenchPorts,
		Experiments: set.NumExperiments(),
		Population:  population,
		Generations: scale.MaxGenerations,
		Islands:     islands,
	}
	run := func(islands int) (EvoBenchRun, error) {
		opts := evo.Options{
			PopulationSize:    population,
			MaxGenerations:    scale.MaxGenerations,
			NumPorts:          evoBenchPorts,
			VolumeObjective:   true,
			Seed:              scale.Seed,
			Islands:           islands,
			MigrationInterval: scale.MigrationInterval,
			MigrationCount:    scale.MigrationCount,
		}
		start := time.Now()
		r, err := evo.Run(ctx, set, opts)
		if err != nil {
			return EvoBenchRun{}, err
		}
		secs := time.Since(start).Seconds()
		out := EvoBenchRun{
			Seconds:     secs,
			Evaluations: r.FitnessEvaluations,
			Generations: r.Generations,
			BestError:   r.BestError,
			BestVolume:  r.BestVolume,
		}
		if secs > 0 {
			out.EvalsPerSec = float64(r.FitnessEvaluations) / secs
		}
		return out, nil
	}
	if res.Single, err = run(1); err != nil {
		return nil, err
	}
	if res.Island, err = run(islands); err != nil {
		return nil, err
	}
	// Report the knobs the island run actually used (defaults filled the
	// same way evo.Run fills them).
	res.MigrationInterval = scale.MigrationInterval
	if res.MigrationInterval == 0 {
		res.MigrationInterval = 5
	}
	res.MigrationCount = scale.MigrationCount
	if res.MigrationCount == 0 {
		res.MigrationCount = 1
	}
	return res, nil
}

// Speedup returns the island-over-single wall-time ratio at the equal
// evaluation budget.
func (r *EvoBenchResult) Speedup() float64 {
	if r.Island.Seconds <= 0 {
		return 0
	}
	return r.Single.Seconds / r.Island.Seconds
}

// Render prints the benchmark in a human-readable form.
func (r *EvoBenchResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Island-model evolution (hidden %d-inst/%d-port machine, %d experiments, p=%d, %d generations budget)\n",
		r.NumInsts, r.NumPorts, r.Experiments, r.Population, r.Generations)
	fmt.Fprintf(&b, "island run: %d islands, migration every %d generations, %d emigrants\n\n",
		r.Islands, r.MigrationInterval, r.MigrationCount)
	row := func(name string, run EvoBenchRun) {
		fmt.Fprintf(&b, "%-8s %9.3fs  %8d evals  %10.0f evals/s  %3d gens  Davg=%.6g V=%d\n",
			name, run.Seconds, run.Evaluations, run.EvalsPerSec, run.Generations,
			run.BestError, run.BestVolume)
	}
	row("single", r.Single)
	row("islands", r.Island)
	fmt.Fprintf(&b, "\nspeedup: %.2fx wall-clock at equal evaluation budget (GOMAXPROCS=%d)\n",
		r.Speedup(), runtime.GOMAXPROCS(0))
	return b.String()
}

// WriteCSV emits the two timed runs for machine comparison.
func (r *EvoBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "config,islands,seconds,evaluations,evals_per_sec,generations,best_error,best_volume"); err != nil {
		return err
	}
	for _, row := range []struct {
		name    string
		islands int
		run     EvoBenchRun
	}{{"single", 1, r.Single}, {"islands", r.Islands, r.Island}} {
		if _, err := fmt.Fprintf(w, "%s,%d,%.6f,%d,%.1f,%d,%.8g,%d\n",
			row.name, row.islands, row.run.Seconds, row.run.Evaluations, row.run.EvalsPerSec,
			row.run.Generations, row.run.BestError, row.run.BestVolume); err != nil {
			return err
		}
	}
	return nil
}
