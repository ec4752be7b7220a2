// Package evo implements the evolutionary algorithm of paper §4.4 that
// searches for a port mapping explaining a set of measured throughputs.
//
// The algorithm follows the paper's Algorithm 1:
//
//	initialize population randomly
//	while not done:
//	    apply evolutionary operators   (binary recombination, no mutation)
//	    evaluate fitness               (bottleneck simulation, §4.5)
//	    select new population          (best p of 2p)
//	perform local search               (greedy hill climbing on µop counts)
//	return fittest individual
//
// Fitness scalarizes two objectives (a priori scalarization of the
// multiobjective problem): the average relative prediction error Davg and
// the µop volume V, each affinely normalized to [0, 1000] over the
// current combined population.
//
// Per the paper, there is no mutation operator by default: experiments
// showed little benefit over spending the same fitness evaluations on a
// larger population. A mutation rate is retained as an explicit ablation
// knob.
//
// Fitness evaluation — the dominant cost of the algorithm — is delegated
// to internal/engine's batched, parallel fitness service, which scores
// every candidate one way: the §4.5 bottleneck algorithm. The search
// skips duplicate candidates and scores local-search probes
// incrementally; both are bit-exact. This package contains no
// worker-pool code of its own beyond distributing islands over
// engine.ForEachWorker.
//
// # Island model
//
// Every run goes through one coordinator that evolves Options.Islands
// sub-populations ("islands") in epochs; a single population is the
// one-island case. Each island runs the algorithm above on its own
// deterministic RNG stream: the one island of a single-population run
// draws from Options.Seed itself, several islands draw from sub-seeds
// split from it. Each island runs concurrently on its own goroutine, and
// every Options.MigrationInterval generations the islands exchange
// individuals on a ring: island k's best Options.MigrationCount
// individuals (cloned) replace island (k+1 mod N)'s worst. All islands
// share one engine.Service — and with it the read-only experiment set —
// through per-island engine.BatchEvaluator handles, each owning its own
// evaluation scratch; the one island of a single-population run uses
// the Service's parallel batch path instead. Because islands only
// interact at epoch barriers (migration is applied serially,
// collect-then-apply) and share no mutable evaluation state, a fixed
// Seed and a fixed Islands produce bit-identical results regardless of
// Workers or goroutine scheduling.
package evo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pmevo/internal/engine"
	"pmevo/internal/exp"
	"pmevo/internal/portmap"
	"pmevo/internal/runctrl"
)

// Typed interruption errors, re-exported from internal/runctrl so
// consumers can errors.Is against the evo package directly. A Run that
// returns one of these still returns a non-nil *Result when any
// generation completed: the best-so-far partial result, with History
// and Generations reflecting the work actually done.
var (
	ErrCanceled = runctrl.ErrCanceled
	ErrDeadline = runctrl.ErrDeadline
)

// Interrupted reports whether err is a cancellation/deadline
// interruption (and a partial Result may accompany it).
func Interrupted(err error) bool { return runctrl.Interrupted(err) }

// Options configures the evolutionary algorithm. No option changes how
// a candidate's fitness is computed (see the package documentation).
type Options struct {
	// PopulationSize is p: each generation keeps the best p of 2p
	// individuals. The paper's evaluation uses 100,000; scaled-down runs
	// converge on small ISAs with far less.
	PopulationSize int
	// MaxGenerations bounds the evolution loop.
	MaxGenerations int
	// NumPorts is the |P| hyperparameter given by the user (Figure 5:
	// "# ports").
	NumPorts int
	// MaxUopsPerInst bounds the distinct µops sampled per instruction at
	// initialization (0: |P|, the paper's choice).
	MaxUopsPerInst int
	// MutationRate is the per-instruction probability of re-randomizing
	// a child's decomposition. The paper's design uses 0; non-zero
	// values exist for the ablation study.
	MutationRate float64
	// LocalSearch enables the final greedy hill-climbing phase.
	LocalSearch bool
	// LocalSearchMaxPasses bounds hill-climbing sweeps (0: until no
	// improvement, at most 32 passes).
	LocalSearchMaxPasses int
	// VolumeObjective includes the µop volume V in the fitness. The
	// paper always uses it; disabling it is an ablation that yields less
	// compact, harder-to-interpret mappings.
	VolumeObjective bool
	// AccuracyWeight scales the normalized accuracy objective relative
	// to the volume objective (the paper's scalarization weights both
	// equally; values ≤ 0 mean 1). On very small problems the
	// equal-weight scalarization can prefer compact-but-wrong mappings;
	// raising this weight is an extension knob that trades compactness
	// for accuracy (see the ablation tests).
	AccuracyWeight float64
	// Workers is the number of parallel fitness evaluation goroutines
	// (0: GOMAXPROCS). Workers are shared across islands, not
	// per-island: with Islands <= 1 each generation's batch fans out
	// over Workers goroutines; with Islands > 1 each island evaluates
	// serially on its own goroutine and the islands themselves are
	// distributed over min(Workers, Islands) goroutines — total
	// parallelism never exceeds Workers either way, and the value never
	// affects results (see Islands).
	Workers int
	// Islands shards the population into this many sub-populations of
	// PopulationSize/Islands individuals (remainder spread over the
	// first islands) that evolve concurrently, each on its own RNG
	// stream split deterministically from Seed, exchanging individuals
	// on a ring every MigrationInterval generations. One island is the
	// single-population algorithm of paper §4.4: its stream is Seed
	// itself and it never migrates. Determinism contract: a fixed Seed
	// and a fixed Islands give bit-identical results regardless of
	// Workers or goroutine scheduling (pinned by test). Clamped so every
	// island holds at least 2 individuals (Islands <= 0 -> 1,
	// Islands > PopulationSize/2 -> PopulationSize/2).
	Islands int
	// MigrationInterval is the number of generations each island
	// evolves between ring migrations (0: default 5; negative:
	// migration off). Ignored with Islands <= 1.
	MigrationInterval int
	// MigrationCount is the number of emigrants each island sends to
	// its ring successor per migration — its best individuals, cloned,
	// replacing the receiver's worst. 0 selects 1; values >= the
	// smallest island population are capped one below it; negative
	// disables migration.
	MigrationCount int
	// Seed makes runs reproducible.
	Seed int64
	// ConvergenceEps terminates evolution when the spread of Davg in the
	// selected population falls below it and all volumes agree.
	ConvergenceEps float64
	// SeedMappings are injected into the initial population (extension:
	// warm-starting from an existing, possibly outdated port mapping —
	// the OSACA-style validation/refinement use case of §6). Mappings
	// must cover the instruction set with the configured port count.
	SeedMappings []*portmap.Mapping
	// CheckpointDir enables crash-safe checkpointing: at least every
	// CheckpointInterval generations (and at every migration, on
	// interruption, and on completion of the generational phase) the
	// run atomically spills populations, RNG stream positions, and
	// generation counters to this directory. Empty disables
	// checkpointing.
	CheckpointDir string
	// CheckpointInterval is the periodic checkpoint cadence in
	// generations (0: default 10; negative: periodic checkpoints off —
	// migration/interruption/completion checkpoints still happen). An
	// island epoch ends early where a periodic checkpoint falls due;
	// such extra barriers never migrate, so the cadence does not change
	// the result. Clamped, never an error, in the planIslands style.
	CheckpointInterval int
	// Resume restores the run from CheckpointDir's checkpoint before
	// evolving. The determinism contract: an interrupted-then-resumed
	// fixed-seed run produces Best/BestError/BestVolume/History/
	// Generations bit-identical to an uninterrupted run (pinned by
	// golden test); only run-local diagnostics (FitnessEvaluations,
	// CacheStats) may differ, since the resumed process skips work the
	// first process already did. A missing, damaged, or incompatible
	// checkpoint — different experiment set, seed, or any
	// trajectory-shaping option — logs a diagnostic and cold-starts;
	// MaxGenerations may differ (a resume can extend the budget).
	Resume bool
	// OnGeneration, when non-nil, is called on the coordinator
	// goroutine at every epoch barrier with the number of generations
	// completed so far (the furthest island's count, which after the
	// last barrier equals Result.Generations). A single population
	// reaches a barrier after every generation; several islands at
	// every migration, every periodic checkpoint, and the end of the
	// generational phase. It is a progress hook and a deterministic
	// cancellation point for tests; it must not call back into the run.
	OnGeneration func(gensDone int)
	// Log, when non-nil, receives checkpoint/resume diagnostics
	// (Printf-style). Nil means silent.
	Log func(format string, args ...any)
}

// DefaultOptions returns a configuration suitable for medium-size
// inference runs.
func DefaultOptions(numPorts int) Options {
	return Options{
		PopulationSize:  500,
		MaxGenerations:  60,
		NumPorts:        numPorts,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            1,
		ConvergenceEps:  1e-9,
	}
}

// GenStats records one generation for convergence inspection.
type GenStats struct {
	Generation int
	BestError  float64
	BestVolume int
	MeanError  float64
}

// Result is the outcome of a Run.
type Result struct {
	// Best is the fittest mapping found.
	Best *portmap.Mapping
	// BestError is Davg(Best) on the input measurements.
	BestError float64
	// BestVolume is V(Best).
	BestVolume int
	// Generations is the number of evolution steps performed.
	Generations int
	// FitnessEvaluations counts Davg computations (the paper's cost
	// metric for the bottleneck algorithm's speed).
	FitnessEvaluations int
	// History records per-generation statistics.
	History []GenStats
	// CacheStats snapshots the engine's evaluation counters
	// (evaluations, delta evaluations, experiments skipped) at the end
	// of the run.
	CacheStats engine.CacheStats
}

// individual carries a candidate mapping with cached objectives.
type individual struct {
	m      *portmap.Mapping
	davg   float64
	volume int
}

// Run executes the evolutionary algorithm on a measured experiment set.
//
// Cancellation: ctx is honored at every generation boundary, between
// candidates inside a fitness batch, and between local-search probes.
// When ctx is canceled or its deadline passes, Run stops at the next
// such point and returns the best-so-far partial *Result together with
// a typed error wrapping ErrCanceled or ErrDeadline (nil Result only
// when not even the initial population was evaluated). With
// Options.CheckpointDir set, the state at the last completed
// generation boundary is checkpointed before returning, ready for
// Resume.
func Run(ctx context.Context, set *exp.Set, opts Options) (*Result, error) {
	if set == nil || set.NumInsts == 0 {
		return nil, errors.New("evo: empty instruction set")
	}
	if len(set.Measurements) == 0 {
		return nil, errors.New("evo: no measurements")
	}
	if opts.PopulationSize < 2 {
		return nil, errors.New("evo: population size must be at least 2")
	}
	if opts.MaxGenerations < 1 {
		return nil, errors.New("evo: need at least one generation")
	}
	if opts.NumPorts <= 0 || opts.NumPorts > portmap.MaxPorts {
		return nil, fmt.Errorf("evo: invalid port count %d", opts.NumPorts)
	}
	for _, m := range set.Measurements {
		if m.Throughput <= 0 {
			return nil, fmt.Errorf("evo: non-positive measured throughput %g", m.Throughput)
		}
	}
	if opts.ConvergenceEps <= 0 {
		opts.ConvergenceEps = 1e-9
	}
	for _, sm := range opts.SeedMappings {
		if sm.NumInsts() != set.NumInsts || sm.NumPorts != opts.NumPorts {
			return nil, fmt.Errorf("evo: seed mapping dimensions %dx%d do not match %dx%d",
				sm.NumInsts(), sm.NumPorts, set.NumInsts, opts.NumPorts)
		}
		if err := sm.Validate(); err != nil {
			return nil, fmt.Errorf("evo: invalid seed mapping: %w", err)
		}
	}

	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	plan := planIslands(opts)
	setFP := engine.ExpSetFingerprint(set)
	ckptKey := checkpointKey(setFP, opts, plan)

	// Resume restores the checkpoint before the Service exists. Every
	// failure path cold-starts with a diagnostic. Files other than the
	// checkpoint blob in CheckpointDir (such as cache spills written by
	// older versions) are never read.
	var restored *ckptState
	if opts.Resume && opts.CheckpointDir != "" {
		st, err := loadCheckpoint(opts.CheckpointDir, ckptKey, set.NumInsts, opts.NumPorts)
		if err != nil {
			logf("evo: resume: cold start: %v", err)
		} else if err := validateCheckpointGeometry(st, plan); err != nil {
			logf("evo: resume: cold start: %v", err)
		} else {
			restored = st
			logf("evo: resume: restored checkpoint at generation %d from %s",
				maxGens(st), CheckpointPath(opts.CheckpointDir))
		}
	}

	svc, err := engine.NewService(set, engine.ServiceOptions{Workers: opts.Workers})
	if err != nil {
		return nil, fmt.Errorf("evo: %w", err)
	}

	var cp *checkpointer
	if opts.CheckpointDir != "" {
		cp = &checkpointer{
			dir:      opts.CheckpointDir,
			interval: planCheckpointInterval(opts),
			key:      ckptKey,
			numInsts: set.NumInsts,
			numPorts: opts.NumPorts,
			logf:     logf,
		}
	}

	res := &Result{}
	best, err := runIslands(ctx, set, opts, svc, plan, res, cp, restored)
	finish := func(b individual) *Result {
		res.Best = b.m
		res.BestError = b.davg
		res.BestVolume = b.volume
		res.FitnessEvaluations = svc.Evaluations()
		res.CacheStats = svc.Stats()
		return res
	}
	if err != nil {
		if runctrl.Interrupted(err) && best.m != nil {
			return finish(best), err
		}
		return nil, err
	}
	if opts.LocalSearch {
		improved, lsErr := localSearch(ctx, svc, best, opts)
		if lsErr != nil {
			if runctrl.Interrupted(lsErr) && improved.m != nil {
				return finish(improved), lsErr
			}
			return nil, lsErr
		}
		best = improved
	}
	return finish(best), nil
}

// Resume is Run with Options.Resume forced on: restore the checkpoint
// in opts.CheckpointDir (cold-starting with a diagnostic when there is
// none) and continue to MaxGenerations.
func Resume(ctx context.Context, set *exp.Set, opts Options) (*Result, error) {
	opts.Resume = true
	return Run(ctx, set, opts)
}

// maxGens returns the furthest generation any island of a checkpoint
// reached (for the resume diagnostic).
func maxGens(st *ckptState) int {
	g := 0
	for i := range st.islands {
		if st.islands[i].gens > g {
			g = st.islands[i].gens
		}
	}
	return g
}

// validateCheckpointGeometry cross-checks a decoded checkpoint against
// the run's clamped plan. The content key already covers everything
// here (same options hash to the same key), so failures indicate a
// damaged-but-checksum-colliding file or a version skew — treated, as
// always, as a cold start.
func validateCheckpointGeometry(st *ckptState, plan islandPlan) error {
	if st.mode != plan.ckptMode() || len(st.islands) != plan.islands {
		return fmt.Errorf("checkpoint has %d islands in mode %d, want %d islands", len(st.islands), st.mode, plan.islands)
	}
	for k := range st.islands {
		if n := len(st.islands[k].pop); n != plan.sizes[k] {
			return fmt.Errorf("checkpoint island %d population %d, want %d", k, n, plan.sizes[k])
		}
	}
	return nil
}

// defaultMigrationInterval is the epoch length when
// Options.MigrationInterval is 0.
const defaultMigrationInterval = 5

// islandPlan is the clamped island-model geometry of a run (the
// satellite contract: nonsensical Options values are normalized here,
// never returned as errors).
type islandPlan struct {
	islands  int   // >= 1
	sizes    []int // per-island population; sums to PopulationSize
	interval int   // generations between migrations; 0: migration off
	count    int   // emigrants per migration; 0: migration off
}

// planIslands clamps the island-model knobs: Islands <= 0 collapses to
// 1, Islands too large for PopulationSize is capped so every island
// holds at least 2 individuals, MigrationCount is capped below the
// smallest island population, and zero interval/count select defaults.
func planIslands(opts Options) islandPlan {
	n := opts.Islands
	if n <= 0 {
		n = 1
	}
	if max := opts.PopulationSize / 2; n > max {
		n = max
	}
	pl := islandPlan{islands: n, sizes: make([]int, n)}
	base, rem := opts.PopulationSize/n, opts.PopulationSize%n
	for k := range pl.sizes {
		pl.sizes[k] = base
		if k < rem {
			pl.sizes[k]++
		}
	}
	interval := opts.MigrationInterval
	if interval == 0 {
		interval = defaultMigrationInterval
	}
	count := opts.MigrationCount
	if count == 0 {
		count = 1
	}
	if count > base-1 {
		count = base - 1 // base is the smallest island population
	}
	if n == 1 || interval < 0 || count < 0 {
		interval, count = 0, 0 // one island's ring successor is itself
	}
	pl.interval, pl.count = interval, count
	return pl
}

// ckptMode is the checkpoint mode of the plan's geometry: a single
// population keeps the mode it has always been written in.
func (pl islandPlan) ckptMode() byte {
	if pl.islands == 1 {
		return ckptModeSingle
	}
	return ckptModeIslands
}

// island is one sub-population of a run. Between epoch barriers an
// island touches no state outside itself except the shared
// engine.Service's bit-exact pure-function caches (through its private
// BatchEvaluator, or the Service itself when it is the only island),
// which is what makes the run scheduling-independent.
type island struct {
	idx        int
	rng        *rand.Rand
	src        *countingSource
	pop        []individual // sorted best-first after every generation
	seen       map[uint64]engine.Fitness
	be         batchEvaluator
	history    []GenStats
	gens       int
	draws      uint64 // RNG draw count at the last generation boundary
	epochStart int    // gens at the last migration (the start of the migration epoch)
	target     int    // gens this epoch runs to (set by the coordinator)
	inited     bool
	converged  bool
	err        error
}

// alive reports whether the island still has evolution budget.
func (isl *island) alive(maxGens int) bool {
	return isl.err == nil && isl.gens < maxGens && !isl.converged
}

// evolve advances the island up to its epoch target (first evaluating
// the initial population if this is the island's first epoch): the
// generation loop of Algorithm 1 on the island's private RNG and
// population. Called concurrently across islands; errors are parked in
// isl.err for the coordinator. Cancellation stops the island at a
// generation boundary — isl.gens/isl.draws always describe a fully
// evaluated, sorted population, so an interrupted island checkpoints
// and resumes exactly like one that hit its barrier.
func (isl *island) evolve(ctx context.Context, set *exp.Set, opts Options) {
	if isl.err != nil {
		return
	}
	if !isl.inited {
		if err := evaluate(ctx, isl.be, isl.pop, isl.seen); err != nil {
			isl.err = err
			return
		}
		isl.inited = true
		isl.draws = isl.src.n
	}
	p := len(isl.pop)
	for isl.gens < isl.target && isl.gens < opts.MaxGenerations && !isl.converged {
		if runctrl.Check(ctx) != nil {
			// Boundary stop: the coordinator notices the interruption
			// itself, so the island just stops cleanly.
			return
		}
		gen := isl.gens

		// Evolutionary operators: p children from recombined parents.
		children := make([]individual, 0, p)
		for len(children) < p {
			a := isl.pop[isl.rng.Intn(len(isl.pop))].m
			b := isl.pop[isl.rng.Intn(len(isl.pop))].m
			c1, c2 := recombine(isl.rng, a, b, set.Individual)
			if opts.MutationRate > 0 {
				mutate(isl.rng, c1, opts, set.Individual)
				mutate(isl.rng, c2, opts, set.Individual)
			}
			children = append(children, individual{m: c1})
			if len(children) < p {
				children = append(children, individual{m: c2})
			}
		}
		// Prime the duplicate skip with the already evaluated parents;
		// rebuilding it per generation keeps it bounded.
		clear(isl.seen)
		for i := range isl.pop {
			isl.seen[isl.pop[i].m.FingerprintAll()] = engine.Fitness{Davg: isl.pop[i].davg, Volume: isl.pop[i].volume}
		}
		if err := evaluate(ctx, isl.be, children, isl.seen); err != nil {
			// Interrupted mid-batch: the aborted generation's children
			// are discarded and the island state stays at the last
			// boundary (gens/draws untouched). Real errors propagate.
			isl.err = err
			return
		}
		// Selection: scalarize both objectives over the combined
		// population and keep the best p.
		isl.pop = append(isl.pop, children...)
		selectBest(isl.pop, p, opts.VolumeObjective, opts.AccuracyWeight)
		isl.pop = isl.pop[:p]

		best := isl.pop[0]
		isl.history = append(isl.history, GenStats{
			Generation: gen,
			BestError:  best.davg,
			BestVolume: best.volume,
			MeanError:  meanError(isl.pop),
		})
		isl.gens = gen + 1
		isl.draws = isl.src.n
		if converged(isl.pop, opts.ConvergenceEps) {
			isl.converged = true
		}
	}
}

// runIslands is the generational phase of every run: plan.islands
// sub-populations evolving concurrently in epochs, with a serial ring
// migration every plan.interval generations and a final selection of the
// fittest individual. Returns that individual (before local search) and
// fills res.Generations/History.
//
// An epoch ends at the next barrier: after one generation for a single
// population, otherwise at the islands' next migration, capped where the
// next periodic checkpoint falls due. Only migrations change the
// trajectory; the other barriers just checkpoint and report progress.
//
// Cancellation is observed at island generation boundaries and acted on
// at the epoch barrier: the coordinator checkpoints every island's
// boundary state (per-island gens + epochStart, so a stop between
// migrations resumes to the same migration) and returns the best so far
// with the typed interruption error. An interruption before the initial
// population was evaluated returns no individual.
func runIslands(ctx context.Context, set *exp.Set, opts Options, svc *engine.Service, plan islandPlan, res *Result, cp *checkpointer, restored *ckptState) (individual, error) {
	isls := make([]*island, plan.islands)
	if len(isls) == 1 {
		// A single population draws from Seed itself and evaluates each
		// generation's batch in parallel through the Service.
		rng, src := newCountedRand(opts.Seed)
		isls[0] = &island{rng: rng, src: src, seen: make(map[uint64]engine.Fitness), be: svc}
	} else {
		// Split one RNG stream per island from the master seed: island k's
		// stream is seeded by the k-th draw, so the layout is a pure
		// function of (Seed, Islands) — independent of Workers and of
		// which goroutine runs which island. The master stream is never
		// checkpointed (all its draws happen before any island runs).
		master, _ := newCountedRand(opts.Seed)
		for k := range isls {
			rng, src := newCountedRand(master.Int63())
			isls[k] = &island{
				idx:  k,
				rng:  rng,
				src:  src,
				seen: make(map[uint64]engine.Fitness),
				//pmevo:allow serialhandle -- each island is owned by exactly one worker goroutine per generation (see runIslands); the handle never crosses islands
				be: svc.NewBatchEvaluator(),
			}
		}
	}
	if restored != nil {
		// Geometry was validated by the caller; each island fast-forwards
		// its RNG to its boundary draw count and picks up its population,
		// so the continuation is draw-for-draw the uninterrupted run.
		for k, isl := range isls {
			st := &restored.islands[k]
			isl.pop = append(isl.pop, st.pop...)
			isl.history = append(isl.history, st.history...)
			isl.gens = st.gens
			isl.epochStart = st.epochStart
			isl.inited = st.inited
			isl.converged = st.converged
			isl.src.skip(st.draws)
			isl.draws = st.draws
			if isl.inited && !isl.converged && converged(isl.pop, opts.ConvergenceEps) {
				isl.converged = true
			}
		}
	} else {
		// Seed mappings are distributed round-robin; each island fills the
		// rest of its population from its own stream.
		for i, sm := range opts.SeedMappings {
			isl := isls[i%len(isls)]
			if len(isl.pop) < plan.sizes[isl.idx] {
				isl.pop = append(isl.pop, individual{m: sm.Clone()})
			}
		}
		for k, isl := range isls {
			for len(isl.pop) < plan.sizes[k] {
				isl.pop = append(isl.pop, individual{m: portmap.Random(isl.rng, portmap.RandomOptions{
					NumInsts:       set.NumInsts,
					NumPorts:       opts.NumPorts,
					ThroughputHint: set.Individual,
					MaxUops:        opts.MaxUopsPerInst,
				})})
			}
			isl.draws = isl.src.n
		}
	}

	// islandState snapshots every island's boundary state for
	// checkpointing (slices are copied at encode time).
	islandState := func() *ckptState {
		st := &ckptState{mode: plan.ckptMode(), islands: make([]ckptIsland, len(isls))}
		for k, isl := range isls {
			st.islands[k] = ckptIsland{
				draws:      isl.draws,
				gens:       isl.gens,
				epochStart: isl.epochStart,
				inited:     isl.inited,
				converged:  isl.converged,
				history:    isl.history,
				pop:        isl.pop,
			}
		}
		return st
	}
	maxIslandGens := func() int {
		g := 0
		for _, isl := range isls {
			g = max(g, isl.gens)
		}
		return g
	}

	migrating := plan.interval > 0 && plan.count > 0
	// A migration is due once some island evolved since the last one
	// and every island has reached its migration generation or
	// converged. An island stopped by MaxGenerations short of its
	// migration generation holds the migration back, so the trajectory
	// never depends on the budget.
	evolvedSinceMigration := func() bool {
		for _, isl := range isls {
			if isl.gens > isl.epochStart {
				return true
			}
		}
		return false
	}
	migrationDue := func() bool {
		for _, isl := range isls {
			if !isl.converged && isl.gens < isl.epochStart+plan.interval {
				return false
			}
		}
		return evolvedSinceMigration()
	}
	for {
		// Assign this epoch's per-island generation targets. epochStart
		// is the island's own generation count at the last migration (or
		// the restored one), so a resumed run migrates exactly where the
		// uninterrupted run would have. The phase ends when no island
		// can advance.
		due := cp.nextDue(maxIslandGens())
		advancing := false
		for _, isl := range isls {
			switch {
			case len(isls) == 1:
				isl.target = isl.gens + 1
			case migrating:
				isl.target = min(isl.epochStart+plan.interval, due)
			default:
				isl.target = min(opts.MaxGenerations, due)
			}
			advancing = advancing || (isl.alive(opts.MaxGenerations) && isl.gens < isl.target)
		}
		if !advancing {
			break
		}
		engine.ForEachWorker(len(isls), opts.Workers, func(_, k int) {
			isls[k].evolve(ctx, set, opts)
		})
		interrupted := runctrl.Check(ctx)
		for _, isl := range isls {
			if isl.err == nil {
				continue
			}
			if runctrl.Interrupted(isl.err) {
				// The island stopped at its last boundary; the
				// coordinator owns the interruption from here.
				if interrupted == nil {
					interrupted = isl.err
				}
				isl.err = nil
				continue
			}
			return individual{}, isl.err
		}
		if migrating && migrationDue() {
			// Migrating before acting on an interruption means no
			// checkpoint ever holds a pending migration.
			migrate(isls, plan.count, opts.ConvergenceEps)
			for _, isl := range isls {
				isl.epochStart = isl.gens
			}
			cp.save(maxIslandGens(), islandState)
		}
		if interrupted != nil {
			res.Generations, res.History = mergeIslandStats(isls)
			cp.save(maxIslandGens(), islandState)
			best, ok := fittest(isls, opts)
			if !ok {
				return individual{}, interrupted
			}
			return best, interrupted
		}
		cp.maybe(maxIslandGens(), islandState)
		if opts.OnGeneration != nil {
			opts.OnGeneration(maxIslandGens())
		}
	}

	res.Generations, res.History = mergeIslandStats(isls)
	cp.save(res.Generations, islandState)
	if migrating && evolvedSinceMigration() {
		// The budget ran out between migrations. The exchange the last
		// epoch ends with still feeds the final selection, but it is not
		// checkpointed: a resume with a larger budget continues to the
		// next migration generation, exactly as a run with that budget
		// does.
		migrate(isls, plan.count, opts.ConvergenceEps)
	}
	best, _ := fittest(isls, opts)
	return best, nil
}

// fittest returns the run's fittest individual: a single population's
// best, or the best of the union of several islands' initialized
// populations ranked under one shared normalization, exactly as one
// combined generation would be. ok is false when no population has been
// evaluated yet.
func fittest(isls []*island, opts Options) (best individual, ok bool) {
	if len(isls) == 1 {
		// Re-ranking one population would renormalize its objectives
		// over p instead of 2p individuals and could pick another one.
		if !isls[0].inited {
			return individual{}, false
		}
		return isls[0].pop[0], true
	}
	combined := make([]individual, 0, opts.PopulationSize)
	for _, isl := range isls {
		if isl.inited {
			combined = append(combined, isl.pop...)
		}
	}
	if len(combined) == 0 {
		return individual{}, false
	}
	selectBest(combined, len(combined), opts.VolumeObjective, opts.AccuracyWeight)
	return combined[0], true
}

// migrate performs one ring migration: island k's best count individuals
// (clones, so islands never share mutable mappings) replace island
// (k+1 mod N)'s worst. Emigrants are collected from every island before
// any are applied, so the exchange sees each island's pre-migration
// population and the result is independent of application order. A
// converged island keeps donating; receiving immigrants that re-open its
// fitness spread puts it back into the evolution loop.
func migrate(isls []*island, count int, eps float64) {
	n := len(isls)
	emigrants := make([][]individual, n)
	for k, isl := range isls {
		es := make([]individual, 0, count)
		for j := 0; j < count && j < len(isl.pop); j++ {
			src := isl.pop[j]
			es = append(es, individual{m: src.m.Clone(), davg: src.davg, volume: src.volume})
		}
		emigrants[k] = es
	}
	for k := range isls {
		dst := isls[(k+1)%n]
		for j, em := range emigrants[k] {
			dst.pop[len(dst.pop)-1-j] = em
		}
		if dst.converged && !converged(dst.pop, eps) {
			dst.converged = false
		}
	}
}

// mergeIslandStats folds per-island histories into the Result shape:
// generation g's BestError/BestVolume is the best over the islands that
// ran generation g (ties break on volume, then island order), MeanError
// is the population-weighted mean, and Generations is the longest island
// run. A single population's history passes through unchanged (the
// weighted mean MeanError·n/n need not round-trip bit-exactly).
func mergeIslandStats(isls []*island) (int, []GenStats) {
	if len(isls) == 1 {
		return isls[0].gens, isls[0].history
	}
	gens := 0
	for _, isl := range isls {
		if isl.gens > gens {
			gens = isl.gens
		}
	}
	var hist []GenStats
	for g := 0; ; g++ {
		any := false
		hs := GenStats{Generation: g, BestError: math.Inf(1), BestVolume: math.MaxInt}
		sumMean, totalPop := 0.0, 0
		for _, isl := range isls {
			if g >= len(isl.history) {
				continue
			}
			h := isl.history[g]
			if h.BestError < hs.BestError || (h.BestError == hs.BestError && h.BestVolume < hs.BestVolume) {
				hs.BestError, hs.BestVolume = h.BestError, h.BestVolume
			}
			sumMean += h.MeanError * float64(len(isl.pop))
			totalPop += len(isl.pop)
			any = true
		}
		if !any {
			break
		}
		hs.MeanError = sumMean / float64(totalPop)
		hist = append(hist, hs)
	}
	return gens, hist
}

// batchEvaluator abstracts the two batch-evaluation routes: the Service
// itself (parallel over Workers, one batch at a time — a single
// population's route) and a per-island engine.BatchEvaluator
// (serial, any number concurrent against one Service). Both produce
// bit-identical fitnesses.
type batchEvaluator interface {
	EvaluateAll(ctx context.Context, ms []*portmap.Mapping, out []engine.Fitness) error
}

// evaluate fills in the objectives of all individuals through the given
// batch evaluator. Structurally equal candidates — detected by
// whole-mapping fingerprint, within the batch and against the
// caller-primed seen map — are evaluated once and the fitness copied
// (bit-identical: equal mappings have equal fitness). Newly computed
// fitnesses are added to seen.
//
// An interrupted EvaluateAll leaves the batch partially filled; the
// error propagates and no individual is updated, so the caller's
// population stays consistent (the aborted batch is simply discarded).
func evaluate(ctx context.Context, be batchEvaluator, inds []individual, seen map[uint64]engine.Fitness) error {
	fps := make([]uint64, len(inds))
	batch := make(map[uint64]int, len(inds)) // fingerprint -> index into uniq
	uniq := make([]*portmap.Mapping, 0, len(inds))
	for i := range inds {
		fp := inds[i].m.FingerprintAll()
		fps[i] = fp
		if _, ok := seen[fp]; ok {
			continue
		}
		if _, ok := batch[fp]; ok {
			continue
		}
		batch[fp] = len(uniq)
		uniq = append(uniq, inds[i].m)
	}
	fits := make([]engine.Fitness, len(uniq))
	if err := be.EvaluateAll(ctx, uniq, fits); err != nil {
		return err
	}
	for fp, k := range batch {
		seen[fp] = fits[k]
	}
	for i := range inds {
		f := seen[fps[i]]
		inds[i].davg = f.Davg
		inds[i].volume = f.Volume
	}
	return nil
}

func meanError(pop []individual) float64 {
	s := 0.0
	for _, ind := range pop {
		s += ind.davg
	}
	return s / float64(len(pop))
}

// converged reports whether the population has collapsed to a single
// fitness value (§4.4 termination criterion).
func converged(pop []individual, eps float64) bool {
	minD, maxD := pop[0].davg, pop[0].davg
	minV, maxV := pop[0].volume, pop[0].volume
	for _, ind := range pop[1:] {
		minD = math.Min(minD, ind.davg)
		maxD = math.Max(maxD, ind.davg)
		if ind.volume < minV {
			minV = ind.volume
		}
		if ind.volume > maxV {
			maxV = ind.volume
		}
	}
	return maxD-minD < eps && minV == maxV
}

// selectBest sorts the population by scalarized fitness F(m) =
// w·Λ1(Davg(m)) + Λ2(V(m)) with both objectives affinely normalized to
// [0, 1000] over the current population (the paper uses w = 1), then
// truncates to the best p. Ties break deterministically on
// (davg, volume). The scalarized key is computed once per individual —
// O(n) normalizations — and the stable sort compares keys, so the
// resulting order is identical to recomputing the key in the comparator.
func selectBest(pop []individual, p int, volumeObjective bool, accuracyWeight float64) {
	if accuracyWeight <= 0 {
		accuracyWeight = 1
	}
	minD, maxD := pop[0].davg, pop[0].davg
	minV, maxV := float64(pop[0].volume), float64(pop[0].volume)
	for _, ind := range pop[1:] {
		minD = math.Min(minD, ind.davg)
		maxD = math.Max(maxD, ind.davg)
		minV = math.Min(minV, float64(ind.volume))
		maxV = math.Max(maxV, float64(ind.volume))
	}
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		return (v - lo) / (hi - lo) * 1000
	}
	keys := make([]float64, len(pop))
	for i := range pop {
		f := accuracyWeight * norm(pop[i].davg, minD, maxD)
		if volumeObjective {
			f += norm(float64(pop[i].volume), minV, maxV)
		}
		keys[i] = f
	}
	sort.Stable(&popByKey{pop: pop, keys: keys})
}

// popByKey sorts a population and its precomputed scalarized fitness
// keys together.
type popByKey struct {
	pop  []individual
	keys []float64
}

func (s *popByKey) Len() int { return len(s.pop) }

func (s *popByKey) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	if s.pop[i].davg != s.pop[j].davg {
		return s.pop[i].davg < s.pop[j].davg
	}
	return s.pop[i].volume < s.pop[j].volume
}

func (s *popByKey) Swap(i, j int) {
	s.pop[i], s.pop[j] = s.pop[j], s.pop[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// recombine implements the paper's binary recombination: for each
// instruction, the µops of both parents (with multiplicities) are
// divided randomly into two parts that become the children's
// decompositions. A child that would end up with no µops for an
// instruction receives one random µop instance from the combined pool.
func recombine(rng *rand.Rand, a, b *portmap.Mapping, tpHints []float64) (*portmap.Mapping, *portmap.Mapping) {
	n := a.NumInsts()
	c1 := portmap.NewMapping(n, a.NumPorts)
	c2 := portmap.NewMapping(n, a.NumPorts)
	var pool, d1, d2 []portmap.UopCount
	for i := 0; i < n; i++ {
		pool = pool[:0]
		pool = append(pool, a.Decomp[i]...)
		pool = append(pool, b.Decomp[i]...)

		d1, d2 = d1[:0], d2[:0]
		for _, uc := range pool {
			// Binomial split of the multiplicity between the children.
			k := 0
			for j := 0; j < uc.Count; j++ {
				if rng.Intn(2) == 0 {
					k++
				}
			}
			if k > 0 {
				d1 = append(d1, portmap.UopCount{Ports: uc.Ports, Count: k})
			}
			if uc.Count-k > 0 {
				d2 = append(d2, portmap.UopCount{Ports: uc.Ports, Count: uc.Count - k})
			}
		}
		if len(d1) == 0 {
			uc := pool[rng.Intn(len(pool))]
			d1 = append(d1, portmap.UopCount{Ports: uc.Ports, Count: 1})
		}
		if len(d2) == 0 {
			uc := pool[rng.Intn(len(pool))]
			d2 = append(d2, portmap.UopCount{Ports: uc.Ports, Count: 1})
		}
		c1.SetDecomp(i, d1)
		c2.SetDecomp(i, d2)
	}
	return c1, c2
}

// mutate re-randomizes each instruction's decomposition with probability
// opts.MutationRate (ablation only; the paper's design omits mutation).
func mutate(rng *rand.Rand, m *portmap.Mapping, opts Options, tpHints []float64) {
	for i := 0; i < m.NumInsts(); i++ {
		if rng.Float64() >= opts.MutationRate {
			continue
		}
		hint := 1.0
		if tpHints != nil {
			hint = tpHints[i]
		}
		single := portmap.Random(rng, portmap.RandomOptions{
			NumInsts:       1,
			NumPorts:       opts.NumPorts,
			ThroughputHint: []float64{hint},
			MaxUops:        opts.MaxUopsPerInst,
		})
		m.SetDecomp(i, single.Decomp[0])
	}
}

// localSearch greedily adjusts µop multiplicities (§4.4: "incrementally
// adjusts the number n of µop occurrences for each edge (i,n,u) ∈ N and
// keeps the changes to the port mapping if it is fitter than before").
// An adjustment is kept if it reduces Davg, or keeps Davg (within 1e-12)
// while reducing the volume.
//
// Each ±1 probe edits the single affected µop count in place and is
// scored through the engine's incremental EvaluateDelta, which only
// re-predicts the experiments containing the changed instruction;
// rejected probes revert the edit, accepted ones commit the delta. The
// one Clone is taken up front, so the probe loop allocates nothing and
// its cost is O(#experiments containing instruction i) per probe instead
// of O(#experiments).
//
// Cancellation is checked per pass and per instruction; an interrupted
// search returns the best individual accepted so far (every commit
// leaves m consistent) with the typed interruption error.
func localSearch(ctx context.Context, svc *engine.Service, start individual, opts Options) (individual, error) {
	m := start.m.Clone()
	st, err := svc.NewState(m)
	if err != nil {
		return individual{}, err
	}
	cur := st.Fitness()

	better := func(d2 float64, v2 int, d1 float64, v1 int) bool {
		if d2 < d1-1e-12 {
			return true
		}
		return d2 <= d1+1e-12 && v2 < v1
	}

	maxPasses := opts.LocalSearchMaxPasses
	if maxPasses <= 0 {
		maxPasses = 32
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < m.NumInsts(); i++ {
			if err := runctrl.Check(ctx); err != nil {
				return individual{m: m, davg: cur.Davg, volume: cur.Volume}, err
			}
			for j := 0; j < len(m.Decomp[i]); j++ {
				orig := m.Decomp[i][j].Count
				for _, delta := range []int{1, -1} {
					next := orig + delta
					if next < 0 {
						continue
					}
					if next == 0 && len(m.Decomp[i]) == 1 {
						continue // every instruction needs at least one µop
					}
					var removed portmap.UopCount
					if next == 0 {
						removed = m.RemoveUopAt(i, j)
					} else {
						m.SetUopCount(i, j, next)
					}
					fit, err := svc.EvaluateDelta(st, i)
					if err != nil {
						return individual{}, err
					}
					if better(fit.Davg, fit.Volume, cur.Davg, cur.Volume) {
						st.Commit()
						cur = fit
						improved = true
						break // re-inspect the modified decomposition
					}
					// Rejected: revert the in-place edit.
					if next == 0 {
						m.InsertUopAt(i, j, removed)
					} else {
						m.SetUopCount(i, j, orig)
					}
				}
				if j >= len(m.Decomp[i]) {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return individual{m: m, davg: cur.Davg, volume: cur.Volume}, nil
}
