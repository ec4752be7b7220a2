// Package engine is the batched, parallel throughput-evaluation layer
// shared by every consumer of the throughput model: the evolutionary
// search (fitness evaluation, §4.4), the evaluation figure and table
// generators (§5), and the CLIs.
//
// It provides two abstractions:
//
//   - Predictor: the interchangeable throughput engines (the §4.5
//     bottleneck simulation algorithm, the Definition-3 linear program,
//     and the union-enumeration and naive ablation variants), selected
//     by name, with a batched PredictAll form that fans out over a
//     worker pool. The evaluation generators and the CLIs predict
//     through them.
//   - Service: the search's fitness evaluation over a fixed measured
//     experiment set. It always scores with the bottleneck algorithm
//     through per-instruction subset-sum tables, keeps the experiment
//     set pre-flattened and per-worker evaluator state reusable so the
//     hot loop performs no allocation, and re-scores single-instruction
//     edits incrementally for local search.
//
// All engines agree on all inputs (up to floating-point tolerance);
// this is property-tested in this package and re-checked end to end by
// `pmevo-bench -exp engines`.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
)

// Predictor is one throughput engine: it predicts the steady-state
// throughput of experiments under a port mapping, in cycles per
// experiment instance, single or batched. Predictors are safe for
// concurrent use; obtain them with Default or ByName.
type Predictor struct {
	name string
	// predict computes one validated experiment with a reusable
	// evaluator (engines that need no evaluator ignore it).
	predict func(ev *throughput.Evaluator, m *portmap.Mapping, e portmap.Experiment) (float64, error)
	pool    sync.Pool // *throughput.Evaluator for single-experiment calls
}

// engines is the engine table:
//
//   - bottleneck: the production engine, §4.5's bottleneck simulation
//     algorithm via throughput.Evaluator, which dispatches between the
//     subset-sum table and union enumeration;
//   - lp: the reference engine, the linear program of Definition 3
//     solved with the simplex solver in internal/lp. Model construction
//     is part of every call, mirroring the paper's measurement
//     methodology for the LP baseline (§5.4);
//   - union: enumerates subsets of the distinct µop port sets instead of
//     subsets of the ports; exact, and independent of the port count
//     (the ablation of the paper's design choice);
//   - naive: the unoptimized Θ(2^|P|) subset scan exactly as presented
//     in §4.5, kept as an ablation baseline.
var engines = map[string]*Predictor{
	"bottleneck": {name: "bottleneck", predict: func(ev *throughput.Evaluator, m *portmap.Mapping, e portmap.Experiment) (float64, error) {
		return ev.ThroughputOf(m, e), nil
	}},
	"lp": {name: "lp", predict: func(_ *throughput.Evaluator, m *portmap.Mapping, e portmap.Experiment) (float64, error) {
		return throughput.LP(m.Flatten(e), m.NumPorts)
	}},
	"union": {name: "union", predict: func(_ *throughput.Evaluator, m *portmap.Mapping, e portmap.Experiment) (float64, error) {
		return throughput.BottleneckUnion(m.Flatten(e)), nil
	}},
	"naive": {name: "naive", predict: func(_ *throughput.Evaluator, m *portmap.Mapping, e portmap.Experiment) (float64, error) {
		return throughput.BottleneckNaive(m.Flatten(e)), nil
	}},
}

// Default returns the production engine: the bottleneck simulation
// algorithm with the subset-sum and union-enumeration optimizations.
func Default() *Predictor { return engines["bottleneck"] }

// Names returns the selectable engine names, sorted.
func Names() []string {
	out := make([]string, 0, len(engines))
	for n := range engines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByName returns the engine with the given name; the empty string
// selects the default (bottleneck) engine.
func ByName(name string) (*Predictor, error) {
	if name == "" {
		return Default(), nil
	}
	if p, ok := engines[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
}

// Name identifies the engine (e.g. "bottleneck", "lp").
func (p *Predictor) Name() string { return p.name }

// Predict returns the throughput of one experiment under m. A reusable
// evaluator is drawn from a pool, so buffers survive across calls
// without locking in the caller.
func (p *Predictor) Predict(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	if err := validate(m, e); err != nil {
		return 0, err
	}
	ev, _ := p.pool.Get().(*throughput.Evaluator)
	if ev == nil {
		ev = new(throughput.Evaluator)
	}
	v, err := p.predict(ev, m, e)
	p.pool.Put(ev)
	return v, err
}

// PredictAll predicts every experiment in es, writing results into out
// (len(out) must equal len(es)). The batch fans out over the worker
// pool, each worker with its own reusable evaluator; the first error by
// experiment index is returned.
func (p *Predictor) PredictAll(m *portmap.Mapping, es []portmap.Experiment, out []float64) error {
	if len(out) != len(es) {
		return fmt.Errorf("engine: output length %d does not match batch length %d", len(out), len(es))
	}
	for _, e := range es {
		if err := validate(m, e); err != nil {
			return err
		}
	}
	workers := min(Workers(0), len(es))
	evals := make([]throughput.Evaluator, workers)
	return ForEachWorkerErr(len(es), workers, func(w, i int) error {
		v, err := p.predict(&evals[w], m, es[i])
		if err != nil {
			return fmt.Errorf("engine: experiment %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
}

// validate checks that every instruction of e is covered by m.
func validate(m *portmap.Mapping, e portmap.Experiment) error {
	for _, t := range e {
		if t.Inst < 0 || t.Inst >= m.NumInsts() {
			return fmt.Errorf("engine: instruction %d out of range (mapping covers %d)", t.Inst, m.NumInsts())
		}
	}
	return nil
}
