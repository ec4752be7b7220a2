package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
	"pmevo/internal/throughput"
)

// Fitness holds the two §4.4 objectives of one candidate mapping: the
// average relative prediction error Davg over the measured experiment
// set, and the µop volume V.
type Fitness struct {
	Davg   float64
	Volume int
}

// ServiceOptions configures a fitness-evaluation Service.
type ServiceOptions struct {
	// Workers is the parallelism of EvaluateAll (<= 0: GOMAXPROCS).
	Workers int
}

// CacheStats is a snapshot of a Service's evaluation counters. The
// delta counters quantify how much per-experiment work incremental
// evaluation skipped; pmevo-bench's fitness experiment reports them.
type CacheStats struct {
	// Evaluations counts Davg computations: every candidate passed to
	// Evaluate/EvaluateAll/NewState plus every EvaluateDelta probe.
	Evaluations int64
	// DeltaEvaluations counts the EvaluateDelta subset.
	DeltaEvaluations int64
	// DeltaExperimentsSkipped counts experiments EvaluateDelta did not
	// have to re-predict because the changed instruction does not occur
	// in them.
	DeltaExperimentsSkipped int64
}

// Service evaluates candidate port mappings against a fixed measured
// experiment set. It is the fitness-evaluation layer of the evolutionary
// algorithm (§4.4/§4.5), and scores every candidate one way: the
// bottleneck algorithm over per-instruction subset-sum tables.
// Construction pre-flattens the experiment set into contiguous storage
// and builds an inverted index (instruction → experiments containing
// it); batched evaluation fans out over a worker pool whose workers each
// own reusable evaluator state, so the per-candidate hot loop allocates
// nothing.
//
// Two mechanisms keep the hot loop free of redundant work:
//
//   - each worker's scratch keeps per-instruction subset-sum tables
//     keyed by decomposition fingerprint, rebuilt only when an
//     instruction's decomposition differs from the one that worker last
//     saw, so the experiments of a candidate — and candidates sharing
//     decompositions — reuse them;
//   - the incremental NewState/EvaluateDelta API: re-evaluating after a
//     single-instruction change only re-predicts the experiments that
//     contain the changed instruction, turning a local-search probe from
//     O(#experiments) into O(#experiments containing the instruction).
//
// Both are bit-exact: the table route produces the exact floats
// throughput.Evaluator.ThroughputOf would, and delta evaluation
// re-accumulates the error sum in experiment order, so Davg is
// bit-identical to a full evaluation.
//
// Evaluate may be called concurrently; EvaluateAll runs one batch at a
// time (per-worker state is reused across batches).
type Service struct {
	workers  int
	numInsts int

	// Pre-flattened experiment set: experiment i is
	// terms[offs[i]:offs[i+1]] with measured throughput meas[i].
	terms []portmap.InstCount
	offs  []int32
	meas  []float64

	// instExps is the inverted index: instExps[i] lists (sorted,
	// deduplicated) the experiments whose multiset contains instruction
	// i. EvaluateDelta re-predicts exactly these.
	instExps [][]int32

	workerSc []evalScratch // per-worker state for EvaluateAll
	pool     sync.Pool     // *evalScratch for Evaluate

	evals        atomic.Int64
	deltaEvals   atomic.Int64
	deltaSkipped atomic.Int64
}

// evalScratch is one worker's reusable evaluation state: the throughput
// evaluator plus per-instruction subset-sum unit tables keyed by
// decomposition fingerprint, so they are (re)built only when an
// instruction's decomposition actually differs from the one last seen
// by this worker.
// Experiments sharing an instruction reuse them within a candidate, and
// candidates sharing decompositions reuse them across the batch.
type evalScratch struct {
	ev throughput.Evaluator

	k      int      // port count the tables are built for
	tblFp  []uint64 // fingerprint each table was built from (0: none)
	tblInf []bool
	tables [][]float64 // per instruction: 2^k table entries, then k+1 class maxima
	tparts []throughput.TablePart
}

// ensure sizes the scratch for the instruction count and invalidates the
// tables if the port universe changed.
func (sc *evalScratch) ensure(numInsts, numPorts int) {
	if len(sc.tblFp) < numInsts {
		sc.tblFp = make([]uint64, numInsts)
		sc.tblInf = make([]bool, numInsts)
		sc.tables = make([][]float64, numInsts)
	}
	if sc.k != numPorts {
		sc.k = numPorts
		clear(sc.tblFp)
	}
}

// tableFor returns instruction inst's unit subset-sum table and class
// maxima under m (as a ready TablePart minus the scale), rebuilding them
// only if the cached table was built from a different decomposition.
func (sc *evalScratch) tableFor(m *portmap.Mapping, inst, size int) throughput.TablePart {
	fp := m.Fingerprint(inst)
	buf := sc.tables[inst]
	if sc.tblFp[inst] != fp {
		if n := size + sc.k + 1; cap(buf) < n {
			buf = make([]float64, n)
		} else {
			buf = buf[:n]
		}
		sc.tblInf[inst] = throughput.BuildUnitTable(buf[:size], buf[size:], m.Decomp[inst], sc.k)
		sc.tables[inst] = buf
		sc.tblFp[inst] = fp
	}
	return throughput.TablePart{Table: buf[:size], Max: buf[size:], Inf: sc.tblInf[inst]}
}

// NewService compiles the measured experiment set into a Service.
func NewService(set *exp.Set, opts ServiceOptions) (*Service, error) {
	if set == nil || set.NumInsts == 0 {
		return nil, errors.New("engine: empty instruction set")
	}
	if len(set.Measurements) == 0 {
		return nil, errors.New("engine: no measurements")
	}
	workers := Workers(opts.Workers)
	s := &Service{
		workers:  workers,
		numInsts: set.NumInsts,
		offs:     make([]int32, 1, len(set.Measurements)+1),
		meas:     make([]float64, 0, len(set.Measurements)),
		instExps: make([][]int32, set.NumInsts),
		workerSc: make([]evalScratch, workers),
	}
	for i, m := range set.Measurements {
		if m.Throughput <= 0 {
			return nil, fmt.Errorf("engine: measurement %d has non-positive throughput %g", i, m.Throughput)
		}
		for _, t := range m.Exp {
			if t.Inst < 0 || t.Inst >= set.NumInsts {
				return nil, fmt.Errorf("engine: measurement %d references instruction %d outside 0..%d",
					i, t.Inst, set.NumInsts-1)
			}
			if t.Count < 0 {
				return nil, fmt.Errorf("engine: measurement %d has negative count %d for instruction %d",
					i, t.Count, t.Inst)
			}
		}
		s.terms = append(s.terms, m.Exp...)
		s.offs = append(s.offs, int32(len(s.terms)))
		s.meas = append(s.meas, m.Throughput)
	}

	// Inverted index: experiments are visited in order, so each list is
	// sorted; consecutive-duplicate suppression handles instructions
	// appearing in several terms of one (un-normalized) experiment.
	for i := range s.meas {
		for _, t := range s.experiment(i) {
			lst := s.instExps[t.Inst]
			if len(lst) == 0 || lst[len(lst)-1] != int32(i) {
				s.instExps[t.Inst] = append(lst, int32(i))
			}
		}
	}

	return s, nil
}

// NumExperiments returns the number of measurements the service
// evaluates against.
func (s *Service) NumExperiments() int { return len(s.meas) }

// ExperimentsWith returns how many experiments contain instruction inst
// (the cost of one EvaluateDelta probe, in throughput predictions).
func (s *Service) ExperimentsWith(inst int) int { return len(s.instExps[inst]) }

// Evaluations returns the number of Davg computations performed so far
// (the paper's cost metric for the bottleneck algorithm's speed).
func (s *Service) Evaluations() int { return int(s.evals.Load()) }

// Stats returns a snapshot of the evaluation counters.
func (s *Service) Stats() CacheStats {
	return CacheStats{
		Evaluations:             s.evals.Load(),
		DeltaEvaluations:        s.deltaEvals.Load(),
		DeltaExperimentsSkipped: s.deltaSkipped.Load(),
	}
}

// experiment returns the i-th pre-flattened experiment without copying.
func (s *Service) experiment(i int) portmap.Experiment {
	return portmap.Experiment(s.terms[s.offs[i]:s.offs[i+1]])
}

// predictOne predicts experiment i under m: through the
// per-instruction subset-sum tables in sc for up to
// throughput.MaxUnitTablePorts ports, and through ThroughputOf for wider
// port universes (no paper machine has them). sc must have been ensured
// for m. The table route is bit-identical to ThroughputOf.
func (s *Service) predictOne(sc *evalScratch, m *portmap.Mapping, i int) float64 {
	if m.NumPorts <= throughput.MaxUnitTablePorts {
		size := 1 << uint(m.NumPorts)
		sc.tparts = sc.tparts[:0]
		for _, t := range s.experiment(i) {
			part := sc.tableFor(m, t.Inst, size)
			part.Scale = float64(t.Count)
			sc.tparts = append(sc.tparts, part)
		}
		return throughput.BottleneckTables(sc.tparts, m.NumPorts)
	}
	return sc.ev.ThroughputOf(m, s.experiment(i))
}

// davg computes Davg(m), optionally capturing the per-experiment
// predictions into preds (len(preds) == NumExperiments). m must have
// passed checkMapping.
func (s *Service) davg(sc *evalScratch, m *portmap.Mapping, preds []float64) float64 {
	sc.ensure(s.numInsts, m.NumPorts)
	sum := 0.0
	for i, meas := range s.meas {
		pred := s.predictOne(sc, m, i)
		if preds != nil {
			preds[i] = pred
		}
		sum += math.Abs(pred-meas) / meas
	}
	return sum / float64(len(s.meas))
}

// checkMapping rejects a mapping that does not cover every instruction
// of the experiment set; scoring one would index past its
// decompositions. Wider mappings are admitted: their extra
// instructions occur in no experiment.
func (s *Service) checkMapping(m *portmap.Mapping) error {
	if m.NumInsts() < s.numInsts {
		return fmt.Errorf("engine: mapping covers %d instructions, experiment set needs %d",
			m.NumInsts(), s.numInsts)
	}
	return nil
}

// getScratch draws a reusable scratch for concurrent single-candidate
// evaluation; putScratch returns it.
func (s *Service) getScratch() *evalScratch {
	sc, _ := s.pool.Get().(*evalScratch)
	if sc == nil {
		sc = new(evalScratch)
	}
	return sc
}

func (s *Service) putScratch(sc *evalScratch) { s.pool.Put(sc) }

// Evaluate computes the fitness of a single mapping. It is safe for
// concurrent use and counts as one fitness evaluation.
func (s *Service) Evaluate(m *portmap.Mapping) (Fitness, error) {
	if err := s.checkMapping(m); err != nil {
		return Fitness{}, err
	}
	s.evals.Add(1)
	sc := s.getScratch()
	f := Fitness{Davg: s.davg(sc, m, nil), Volume: m.Volume()}
	s.putScratch(sc)
	return f, nil
}

// EvaluateAll computes the fitness of every mapping in ms in parallel,
// writing results into out (len(out) must equal len(ms)). Every mapping
// is checked before any is scored. Cancellation is honored between
// candidates: once ctx is done, no further candidates start and the
// typed interruption error (runctrl.ErrCanceled / runctrl.ErrDeadline)
// is returned; out is then partially filled and must be discarded — the
// caller resumes from its last consistent state, which for the
// evolutionary loop is the previous generation.
func (s *Service) EvaluateAll(ctx context.Context, ms []*portmap.Mapping, out []Fitness) error {
	if err := s.checkBatch(ms, out); err != nil {
		return err
	}
	s.evals.Add(int64(len(ms)))
	return ForEachWorkerCtx(ctx, len(ms), s.workers, func(w, i int) {
		out[i] = Fitness{Davg: s.davg(&s.workerSc[w], ms[i], nil), Volume: ms[i].Volume()}
	})
}

// checkBatch validates the output length and every mapping of a batch.
func (s *Service) checkBatch(ms []*portmap.Mapping, out []Fitness) error {
	if len(out) != len(ms) {
		return fmt.Errorf("engine: output length %d does not match batch length %d", len(out), len(ms))
	}
	for i, m := range ms {
		if err := s.checkMapping(m); err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
	}
	return nil
}

// BatchEvaluator is a serial batch-evaluation handle with its own private
// scratch. Where Service.EvaluateAll runs one batch at a time over the
// shared per-worker scratches, any number of BatchEvaluators may evaluate
// concurrently against the same Service — each island of an island-model
// run owns one and evaluates its sub-population on its own goroutine,
// while sharing the Service's read-only experiment set. A BatchEvaluator
// itself is not safe for concurrent use.
//
//pmevo:serial
type BatchEvaluator struct {
	svc *Service
	sc  evalScratch
}

// NewBatchEvaluator returns a serial evaluation handle for this Service.
func (s *Service) NewBatchEvaluator() *BatchEvaluator {
	return &BatchEvaluator{svc: s}
}

// EvaluateAll computes the fitness of every mapping in ms serially on the
// calling goroutine, writing results into out (len(out) must equal
// len(ms)). Results are bit-identical to Service.EvaluateAll, and
// mappings are checked the same way. Cancellation is honored between
// candidates, with the same partial-out contract as
// Service.EvaluateAll.
func (b *BatchEvaluator) EvaluateAll(ctx context.Context, ms []*portmap.Mapping, out []Fitness) error {
	s := b.svc
	if err := s.checkBatch(ms, out); err != nil {
		return err
	}
	s.evals.Add(int64(len(ms)))
	for i, m := range ms {
		if err := runctrl.Check(ctx); err != nil {
			return err
		}
		out[i] = Fitness{Davg: s.davg(&b.sc, m, nil), Volume: m.Volume()}
	}
	return nil
}
