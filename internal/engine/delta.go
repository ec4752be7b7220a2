package engine

import (
	"fmt"
	"math"

	"pmevo/internal/portmap"
)

// FitnessState carries a fully evaluated candidate mapping together with
// its per-experiment predictions, enabling incremental re-evaluation
// after single-instruction edits. It is the engine side of the greedy
// local search (§4.4): each ±1 µop-count probe touches one instruction,
// so only the experiments containing it (the Service's inverted index)
// need new throughput predictions — every other per-experiment error
// term is reused.
//
// Protocol:
//
//	st, _ := svc.NewState(m)          // one full evaluation
//	// mutate exactly instruction i of m (SetUopCount, RemoveUopAt, ...)
//	fit, _ := svc.EvaluateDelta(st, i)
//	// accept: st.Commit()  — st now describes the mutated mapping
//	// reject: revert the mutation on m; do NOT Commit
//
// Between NewState/Commit and the next EvaluateDelta, all changes to the
// mapping must be confined to the single instruction passed to
// EvaluateDelta, and must go through Mapping's fingerprint-maintaining
// methods. A FitnessState is not safe for concurrent use.
//
// Delta results are bit-identical to a full evaluation of the mutated
// mapping: retained predictions are the exact floats a fresh computation
// would produce, and the error sum is re-accumulated over all
// experiments in order.
type FitnessState struct {
	svc   *Service
	m     *portmap.Mapping
	fit   Fitness
	preds []float64 // per-experiment predictions of the committed mapping
	sc    evalScratch

	// Pending (uncommitted) delta evaluation.
	pendingInst    int // -1: none
	pendingFit     Fitness
	pendingTouched []int32   // experiments re-predicted by the pending delta
	pendingPreds   []float64 // parallel to pendingTouched
}

// NewState fully evaluates m (counting as one evaluation) and returns a
// state for incremental re-evaluation. The state keeps a reference to m:
// subsequent edits to m drive EvaluateDelta.
func (s *Service) NewState(m *portmap.Mapping) (*FitnessState, error) {
	if err := s.checkMapping(m); err != nil {
		return nil, err
	}
	st := &FitnessState{
		svc:         s,
		m:           m,
		preds:       make([]float64, len(s.meas)),
		pendingInst: -1,
	}
	s.evals.Add(1)
	st.fit = Fitness{Davg: s.davg(&st.sc, m, st.preds), Volume: m.Volume()}
	return st, nil
}

// Fitness returns the fitness of the last committed evaluation.
func (st *FitnessState) Fitness() Fitness { return st.fit }

// Mapping returns the mapping the state tracks.
func (st *FitnessState) Mapping() *portmap.Mapping { return st.m }

// EvaluateDelta re-evaluates the state's mapping after the caller
// changed instruction inst, re-predicting only the experiments that
// contain inst. It counts as one (delta) evaluation. The result is
// pending until Commit: rejecting the edit means reverting the mapping
// and simply not committing. A failed call leaves no pending delta, so
// a following Commit cannot fold in an earlier, rejected probe.
func (s *Service) EvaluateDelta(st *FitnessState, inst int) (Fitness, error) {
	if st == nil || st.svc != s {
		return Fitness{}, fmt.Errorf("engine: fitness state does not belong to this service")
	}
	st.pendingInst = -1 // invalidate until this evaluation completes
	if inst < 0 || inst >= st.m.NumInsts() {
		return Fitness{}, fmt.Errorf("engine: instruction %d out of range (mapping covers %d)", inst, st.m.NumInsts())
	}
	// Instructions beyond the experiment set (NewState admits oversized
	// mappings) occur in no experiment: only the volume can change.
	var touched []int32
	if inst < s.numInsts {
		touched = s.instExps[inst]
	}
	if cap(st.pendingPreds) < len(touched) {
		st.pendingPreds = make([]float64, len(touched))
	}
	st.pendingPreds = st.pendingPreds[:len(touched)]

	// The scratch's derived per-instruction data is keyed by
	// decomposition fingerprint, so the edited instruction's table
	// rebuilds itself and everything else stays valid across probes.
	st.sc.ensure(s.numInsts, st.m.NumPorts)
	for k, j := range touched {
		st.pendingPreds[k] = s.predictOne(&st.sc, st.m, int(j))
	}

	// Re-accumulate the error sum over all experiments in order —
	// O(#experiments) float operations, zero throughput predictions for
	// untouched experiments — so Davg stays bit-identical to a full
	// evaluation.
	sum := 0.0
	ti := 0
	for j, meas := range s.meas {
		pred := st.preds[j]
		if ti < len(touched) && int(touched[ti]) == j {
			pred = st.pendingPreds[ti]
			ti++
		}
		sum += math.Abs(pred-meas) / meas
	}
	fit := Fitness{Davg: sum / float64(len(s.meas)), Volume: st.m.Volume()}

	st.pendingInst = inst
	st.pendingTouched = touched
	st.pendingFit = fit
	s.evals.Add(1)
	s.deltaEvals.Add(1)
	s.deltaSkipped.Add(int64(len(s.meas) - len(touched)))
	return fit, nil
}

// Commit folds the pending delta evaluation into the state: the state's
// fitness and per-experiment predictions now describe the mapping as
// currently edited. Without a pending delta, Commit is a no-op.
func (st *FitnessState) Commit() {
	if st.pendingInst < 0 {
		return
	}
	for k, j := range st.pendingTouched {
		st.preds[j] = st.pendingPreds[k]
	}
	st.fit = st.pendingFit
	st.pendingInst = -1
}
