package eval

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"pmevo/internal/exp"
	"pmevo/internal/machine"
	"pmevo/internal/measure"
	"pmevo/internal/uarch"
)

// MeasureBenchResult reports the §4.2 measurement throughput at Table 1
// scale: the full experiment-generation-and-measurement protocol
// (singletons, pairs, weighted pairs) on each of the three virtual
// processors, timed with the measurement fast path on (steady-state
// period detection in the simulator plus the kernel-level simulation
// cache) and off (brute-force cycle-by-cycle simulation, no cache). The
// measured throughputs are bit-identical by construction — RunMeasureBench
// verifies this — so the pair quantifies pure measurement speedup.
//
// Each fast run measures through a fresh measure.SimCache. With
// WarmStart set (pmevo-bench -cache-dir), that cache is first loaded
// from the directory's spill files, and the run reports the disk-warm
// subset of its hits. The baseline runs measure uncached either way, so
// the bit-equality check also pins warm results identical to cold ones.
type MeasureBenchResult struct {
	Archs []MeasureBenchArch
	// WarmStart records whether the fast runs loaded their caches from
	// a cache directory.
	WarmStart bool
}

// MeasureBenchArch is one processor's timed pair of runs.
type MeasureBenchArch struct {
	Arch        string
	Forms       int
	Experiments int
	Fast        MeasureBenchRun
	Baseline    MeasureBenchRun
}

// MeasureBenchRun is one timed generate-and-measure pass.
type MeasureBenchRun struct {
	Seconds      float64
	Measurements int
	PerSec       float64
	SimHits      int64
	SimMisses    int64
	// SimWarmHits is the subset of SimHits served by entries loaded
	// from a cache file (nonzero only on warm-started runs).
	SimWarmHits int64
}

// Speedup returns the per-arch baseline-over-fast wall-time ratio.
func (a MeasureBenchArch) Speedup() float64 {
	if a.Fast.Seconds <= 0 {
		return 0
	}
	return a.Baseline.Seconds / a.Fast.Seconds
}

// Speedup returns the aggregate speedup over all architectures (total
// baseline time over total fast time).
func (r *MeasureBenchResult) Speedup() float64 {
	var fast, base float64
	for _, a := range r.Archs {
		fast += a.Fast.Seconds
		base += a.Baseline.Seconds
	}
	if fast <= 0 {
		return 0
	}
	return base / fast
}

// RunMeasureBench times the measurement pipeline on all three Table 1
// processors at the given scale, fast path versus baseline, and errors
// if the two produce different measurements anywhere (the fast path must
// be bit-exact). A non-empty cacheDir selects disk-warm timing: each
// fast run's fresh cache starts from exactly the directory's spill
// files and is spilled back afterwards, so every arch's kernels persist
// even if a later arch fails. progress, if non-nil, receives the
// diagnostic of each load that left part of a cache cold.
func RunMeasureBench(ctx context.Context, scale Scale, cacheDir string, progress func(string)) (*MeasureBenchResult, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if progress == nil {
		progress = func(string) {}
	}
	res := &MeasureBenchResult{WarmStart: cacheDir != ""}
	for _, name := range []string{"SKL", "ZEN", "A72"} {
		arch, err := runMeasureBenchArch(ctx, name, scale, cacheDir, progress)
		if err != nil {
			return nil, fmt.Errorf("measure bench %s: %w", name, err)
		}
		res.Archs = append(res.Archs, arch)
	}
	return res, nil
}

func runMeasureBenchArch(ctx context.Context, name string, scale Scale, cacheDir string, progress func(string)) (MeasureBenchArch, error) {
	// The benchmark keeps at least two forms per semantic class: the
	// paper's form sets (310/390 forms over a few dozen classes) are
	// dominated by same-class forms with identical execution behaviour,
	// and that class-level redundancy — which the kernel cache collapses
	// — is part of the measurement workload under test. A
	// one-form-per-class subset would hide it.
	perClass := scale.MaxFormsPerClass
	if perClass == 1 {
		perClass = 2
	}
	run := func(baseline bool) (MeasureBenchRun, *exp.Set, int, error) {
		// Known cache state: a fresh cache, so simulations paid for
		// earlier in the process (the pipeline suite, figure 6) cannot
		// serve this run hits, and the recorded speedup does not depend
		// on invocation order. Disk-warm timing loads exactly the spill
		// files, so every hit beyond them is paid for in-run and the
		// disk's contribution is attributed via SimWarmHits.
		var cache *measure.SimCache
		if !baseline {
			cache = measure.NewSimCache()
			if cacheDir != "" {
				if _, _, err := cache.Load(cacheDir); err != nil {
					progress(fmt.Sprintf("%s: kernel cache partly cold (%v)", name, err))
				}
			}
		}
		proc, err := uarch.ByName(name)
		if err != nil {
			return MeasureBenchRun{}, nil, 0, err
		}
		if baseline {
			proc.Config.PeriodDetectBudget = machine.PeriodDetectDisabled
			proc.Config.EventDrivenDisabled = true
		}
		sub, ids, err := subsetForms(proc.ISA, perClass)
		if err != nil {
			return MeasureBenchRun{}, nil, 0, err
		}
		mopts := measure.DefaultOptions()
		mopts.Seed = scale.Seed
		mopts.SimCache = cache
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			return MeasureBenchRun{}, nil, 0, err
		}
		start := time.Now()
		set, err := exp.GenerateAndMeasure(ctx, measure.SubsetMeasurer{H: h, IDs: ids}, sub.NumForms())
		if err != nil {
			return MeasureBenchRun{}, nil, 0, err
		}
		secs := time.Since(start).Seconds()
		st := h.CacheStats()
		out := MeasureBenchRun{
			Seconds:      secs,
			Measurements: h.Measurements(),
			SimHits:      st.SimHits,
			SimMisses:    st.SimMisses,
			SimWarmHits:  st.SimWarmHits,
		}
		if secs > 0 {
			out.PerSec = float64(out.Measurements) / secs
		}
		if cache != nil && cacheDir != "" {
			// Spill now: the cache holds the disk entries plus this
			// arch's new simulations, which then persist even if a later
			// arch fails. Entries are pure functions of their keys, so
			// spilling mid-benchmark can never affect results.
			if err := cache.Spill(cacheDir); err != nil {
				return MeasureBenchRun{}, nil, 0, fmt.Errorf("spill kernel cache: %w", err)
			}
		}
		return out, set, sub.NumForms(), nil
	}

	fast, fastSet, forms, err := run(false)
	if err != nil {
		return MeasureBenchArch{}, err
	}
	base, baseSet, _, err := run(true)
	if err != nil {
		return MeasureBenchArch{}, err
	}
	if len(fastSet.Measurements) != len(baseSet.Measurements) {
		return MeasureBenchArch{}, fmt.Errorf("experiment counts diverged: %d vs %d",
			len(fastSet.Measurements), len(baseSet.Measurements))
	}
	for i := range fastSet.Measurements {
		if fastSet.Measurements[i].Throughput != baseSet.Measurements[i].Throughput {
			return MeasureBenchArch{}, fmt.Errorf(
				"measurement %d differs: fast %v != baseline %v (measurement fast path must be bit-exact)",
				i, fastSet.Measurements[i].Throughput, baseSet.Measurements[i].Throughput)
		}
	}
	return MeasureBenchArch{
		Arch:        name,
		Forms:       forms,
		Experiments: fastSet.NumExperiments(),
		Fast:        fast,
		Baseline:    base,
	}, nil
}

// Render prints the benchmark in a human-readable form.
func (r *MeasureBenchResult) Render() string {
	var b strings.Builder
	b.WriteString("Measurement throughput (§4.2 generate-and-measure, fast = period detection + kernel cache)\n")
	if r.WarmStart {
		b.WriteString("fast runs warm-started from the persistent kernel cache (-cache-dir)\n")
	}
	b.WriteString("\n")
	for _, a := range r.Archs {
		warm := ""
		if r.WarmStart {
			warm = fmt.Sprintf(" warm=%d", a.Fast.SimWarmHits)
		}

		fmt.Fprintf(&b, "%-4s %3d forms %5d experiments  fast %8.3fs (%7.0f meas/s, hits=%d misses=%d%s)  baseline %8.3fs  speedup %.2fx\n",
			a.Arch, a.Forms, a.Experiments,
			a.Fast.Seconds, a.Fast.PerSec, a.Fast.SimHits, a.Fast.SimMisses, warm,
			a.Baseline.Seconds, a.Speedup())
	}
	fmt.Fprintf(&b, "\naggregate speedup: %.2fx (bit-identical measurements)\n", r.Speedup())
	return b.String()
}

// WriteCSV emits the per-arch timed runs for machine comparison.
func (r *MeasureBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "arch,config,seconds,measurements,meas_per_sec,sim_hits,sim_misses,sim_warm_hits"); err != nil {
		return err
	}
	for _, a := range r.Archs {
		for _, row := range []struct {
			name string
			run  MeasureBenchRun
		}{{"fast", a.Fast}, {"baseline", a.Baseline}} {
			if _, err := fmt.Fprintf(w, "%s,%s,%.6f,%d,%.1f,%d,%d,%d\n",
				a.Arch, row.name, row.run.Seconds, row.run.Measurements,
				row.run.PerSec, row.run.SimHits, row.run.SimMisses, row.run.SimWarmHits); err != nil {
				return err
			}
		}
	}
	return nil
}
