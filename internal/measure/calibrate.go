package measure

import (
	"fmt"
	"sort"

	"pmevo/internal/portmap"
)

// This file implements the empirical loop-time selection of §4.2: "The
// loop bound is automatically chosen to ensure that the loop runs for a
// specific time that guarantees steady-state execution. This time is
// estimated empirically for the processor under test by comparing the
// measurement stability for different times."
//
// On the simulator the analog of the loop time is the number of measured
// iterations: Calibrate increases the iteration budget until repeated
// measurements of a probe workload agree within a stability tolerance,
// then fixes that budget for subsequent measurements.

// CalibrationResult reports the outcome of Calibrate.
type CalibrationResult struct {
	// MeasureIters is the selected measurement iteration count.
	MeasureIters int
	// Spread is the final relative spread between repeated probe
	// measurements.
	Spread float64
	// Steps records the (iterations, spread) pairs tried.
	Steps []CalibrationStep
}

// CalibrationStep is one probe of the calibration sweep.
type CalibrationStep struct {
	Iters  int
	Spread float64
}

// Calibrate determines a measurement iteration budget at which probe
// experiments measure stably: starting from minIters, the budget doubles
// until the relative spread of `probes` repeated measurements of each
// probe experiment drops below tol (or maxIters is reached). The
// harness's configuration is updated with the selected budget.
func (h *Harness) Calibrate(probeExps []portmap.Experiment, probes int, tol float64, minIters, maxIters int) (*CalibrationResult, error) {
	if len(probeExps) == 0 {
		return nil, fmt.Errorf("measure: no probe experiments")
	}
	if probes < 2 {
		return nil, fmt.Errorf("measure: need at least 2 probes")
	}
	if tol <= 0 || minIters < 1 || maxIters < minIters {
		return nil, fmt.Errorf("measure: invalid calibration parameters")
	}

	res := &CalibrationResult{}
	iters := minIters
	for {
		worst := 0.0
		for _, e := range probeExps {
			vals := make([]float64, probes)
			for p := range vals {
				// Vary the warmup slightly so unstable steady states
				// produce visibly different estimates. The sweep probes
				// one body under many (warmup, iters) pairs — the exact
				// shape the per-body period hint deduplicates — so after
				// the first probe, later probes and doublings skip most
				// detection hashing when the harness has a SimCache.
				cyc, instances, err := h.steadyState(e, h.opts.WarmupIters+p, iters)
				if err != nil {
					return nil, err
				}
				vals[p] = cyc / float64(instances)
			}
			sort.Float64s(vals)
			lo, hi := vals[0], vals[len(vals)-1]
			if hi > 0 {
				if spread := (hi - lo) / hi; spread > worst {
					worst = spread
				}
			}
		}
		res.Steps = append(res.Steps, CalibrationStep{Iters: iters, Spread: worst})
		res.MeasureIters = iters
		res.Spread = worst
		if worst <= tol || iters >= maxIters {
			break
		}
		iters *= 2
		if iters > maxIters {
			iters = maxIters
		}
	}
	h.opts.MeasureIters = res.MeasureIters
	return res, nil
}

// MeasureIters returns the harness's current measurement iteration
// budget (after optional calibration).
func (h *Harness) MeasureIters() int { return h.opts.MeasureIters }
