// Package predictors implements the throughput predictors PMEvo is
// compared against in the paper's evaluation (§5.3, §6):
//
//   - uops.info (Abel & Reineke): throughput from the documented
//     ground-truth port mapping via the LP model. Requires per-port
//     hardware performance counters, so it exists only for SKL.
//   - IACA: Intel's closed-source analyzer. Modeled as the documented
//     port mapping plus a front-end dispatch bound, which makes it
//     slightly more accurate than the pure port-mapping model on longer
//     experiments (Figure 6). Intel-only.
//   - llvm-mca: LLVM's scheduling models. Good for SKL, but for ZEN and
//     A72 the models are stale and pessimistic about port parallelism,
//     producing the systematic over-estimation of Figure 7 (§5.3.2).
//   - Ithemal: a learned regressor trained on dependency-heavy basic
//     blocks. Accurate in its training distribution, poor on PMEvo's
//     dependency-free experiments (§5.3.1, Table 3).
//
// All predictors implement the Predictor interface; FromMapping adapts
// any port mapping (including PMEvo's inferred ones) to it. Mapping
// predictions go through internal/engine's bottleneck engine, which
// also provides the batched, parallel PredictAll entry point.
package predictors

import (
	"fmt"

	"pmevo/internal/engine"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

// Predictor estimates the steady-state throughput of an experiment in
// cycles per experiment instance. Implementations are safe for
// concurrent use.
type Predictor interface {
	Name() string
	Predict(e portmap.Experiment) (float64, error)
}

// batchPredictor is the optional batched extension of Predictor.
type batchPredictor interface {
	Predictor
	PredictAll(es []portmap.Experiment, out []float64) error
}

// PredictAll evaluates a predictor on a whole benchmark set, writing
// results into out (len(out) must equal len(es)). Predictors backed by
// the engine layer use its batched implementation; everything else fans
// out over the engine's worker pool.
func PredictAll(p Predictor, es []portmap.Experiment, out []float64) error {
	if bp, ok := p.(batchPredictor); ok {
		return bp.PredictAll(es, out)
	}
	if len(out) != len(es) {
		return fmt.Errorf("%s: output length %d does not match batch length %d", p.Name(), len(out), len(es))
	}
	return engine.ForEachErr(len(es), 0, func(i int) error {
		v, err := p.Predict(es[i])
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
}

// mappingPredictor binds the default (bottleneck) throughput engine to
// a fixed port mapping.
type mappingPredictor struct {
	name string
	m    *portmap.Mapping
}

// FromMapping adapts a port mapping to the Predictor interface using
// the default (bottleneck) engine under the optimal-scheduler
// throughput model. PMEvo's inferred mappings are evaluated through
// this adapter.
func FromMapping(name string, m *portmap.Mapping) Predictor {
	return &mappingPredictor{name: name, m: m}
}

func (p *mappingPredictor) Name() string { return p.name }

func (p *mappingPredictor) Predict(e portmap.Experiment) (float64, error) {
	v, err := engine.Default().Predict(p.m, e)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", p.name, err)
	}
	return v, nil
}

func (p *mappingPredictor) PredictAll(es []portmap.Experiment, out []float64) error {
	if err := engine.Default().PredictAll(p.m, es, out); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return nil
}

// UopsInfo builds the uops.info-style predictor: the exact documented
// port usage under the optimal scheduling model. It refuses processors
// without per-port performance counters, mirroring the real tool's
// hardware requirements (§5.1.1, §6.1).
func UopsInfo(proc *uarch.Processor) (Predictor, error) {
	if !proc.HasPortCounters {
		return nil, fmt.Errorf("uops.info requires per-port performance counters; %s has none", proc.Name)
	}
	return FromMapping("uops.info", proc.GroundTruth), nil
}

// iacaPredictor combines the documented port mapping with a front-end
// dispatch bound.
type iacaPredictor struct {
	proc *uarch.Processor
}

// IACA builds the IACA-style predictor. IACA is provided by Intel for
// Intel microarchitectures only (§6.2).
func IACA(proc *uarch.Processor) (Predictor, error) {
	if proc.Manufacturer != "Intel" {
		return nil, fmt.Errorf("IACA supports only Intel microarchitectures, not %s", proc.Name)
	}
	return &iacaPredictor{proc: proc}, nil
}

func (p *iacaPredictor) Name() string { return "IACA" }

func (p *iacaPredictor) Predict(e portmap.Experiment) (float64, error) {
	gt := p.proc.GroundTruth
	for _, t := range e {
		if t.Inst < 0 || t.Inst >= gt.NumInsts() {
			return 0, fmt.Errorf("IACA: instruction %d out of range", t.Inst)
		}
	}
	port := throughput.OfExperiment(gt, e)
	// Front-end bound: the decoder/dispatch stage moves at most
	// DispatchWidth µops per cycle (documented µop counts).
	uops := 0
	for _, t := range e {
		uops += gt.UopCountOf(t.Inst) * t.Count
	}
	front := float64(uops) / float64(p.proc.Config.DispatchWidth)
	if front > port {
		return front, nil
	}
	return port, nil
}

// LLVMMCA builds the llvm-mca-style predictor from a degraded copy of
// the ground truth, reflecting the quality of LLVM's scheduling models
// per architecture: near-exact for SKL (heavily tuned), pessimistic
// about port parallelism for ZEN and A72, whose models "might not yet be
// as elaborate and accurate" (§5.3.2). The degradation keeps relative
// instruction ordering (hence the decent Pearson correlation in Table 4)
// but systematically over-estimates cycles.
func LLVMMCA(proc *uarch.Processor) Predictor {
	m := proc.GroundTruth.Clone()
	switch proc.Name {
	case "SKL":
		degradeSKL(m)
	case "ZEN":
		degradePorts(m, 1)
	default:
		degradePorts(m, 1)
		inflateUopCounts(m)
	}
	return FromMapping("llvm-mca", m)
}

// inflateUopCounts doubles the µop count of originally multi-µop
// instructions, modeling scheduling files whose per-instruction resource
// cycles are copied from a slower predecessor core. Applied to the A72
// model, whose prediction error in the paper exceeds ZEN's (Table 4).
func inflateUopCounts(m *portmap.Mapping) {
	for i, uops := range m.Decomp {
		if m.UopCountOf(i) < 2 {
			continue
		}
		for j := range uops {
			uops[j].Count *= 2
		}
		m.SetDecomp(i, uops)
	}
}

// degradeSKL applies the small inaccuracies of LLVM's (well-tuned)
// Skylake model: the simple-store AGU port P7 is missing from store
// address µops, and the LEA port set is modeled too narrowly.
func degradeSKL(m *portmap.Mapping) {
	for i, uops := range m.Decomp {
		changed := false
		for j, uc := range uops {
			if uc.Ports == portmap.MakePortSet(2, 3, 7) {
				uops[j].Ports = portmap.MakePortSet(2, 3)
				changed = true
			}
			if uc.Ports == portmap.MakePortSet(1, 5) {
				uops[j].Ports = portmap.MakePortSet(1)
				changed = true
			}
		}
		if changed {
			m.SetDecomp(i, uops)
		}
	}
}

// degradePorts truncates every µop's port set to its maxPorts lowest
// ports, modeling scheduling files that understate the available
// parallelism.
func degradePorts(m *portmap.Mapping, maxPorts int) {
	for i, uops := range m.Decomp {
		for j, uc := range uops {
			if uc.Ports.Count() > maxPorts {
				var trimmed portmap.PortSet
				for _, k := range uc.Ports.Ports()[:maxPorts] {
					trimmed = trimmed.With(k)
				}
				uops[j].Ports = trimmed
			}
		}
		m.SetDecomp(i, uops)
	}
}
