package measure

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pmevo/internal/cachestore"
	"pmevo/internal/cachetable"
	"pmevo/internal/isa"
	"pmevo/internal/machine"
	"pmevo/internal/portmap"
)

// Kernel-level simulation cache.
//
// The harness re-simulates identical loop bodies constantly: singleton
// experiments alias their count-scaled variants ({i→1} and {i→k} unroll
// to the same 50-instruction body), the same experiments recur across
// experiment sets (pipeline generation, calibration probes, benchmark
// sets, C emission), and every eval driver rebuilds harnesses over the
// same three processors. The noiseless steady-state cycles of a body are
// a pure function of (machine, warmup, measure, body), so they are
// cached in a SimCache value. Its owner decides the sharing: harnesses
// given the same value (Options.SimCache) share its entries, a fresh
// value starts cold, and a nil one selects the uncached reference path.
// Load and Spill carry a value across processes: repeated pmevo-bench or
// pmevo-infer invocations on the same virtual machines warm-start
// measurement from a -cache-dir.
//
// The cache sits strictly below the noise layer: a hit returns the exact
// float the simulation would produce, and noise is drawn per measurement
// in experiment order as before, so Measure/MeasureAll results are
// bit-identical with the cache on or off, cold or warm (pinned by test).
// Keys hash the machine fingerprint, the iteration counts, the register
// pools and the sequence of per-form signatures the body unrolls to (see
// "Kernel keys" below), so a lookup needs no loop to be built; key
// equality stands in for input equality at the same ~2^-64 odds as the
// decomposition fingerprints. The machine fingerprint in
// every key also versions disk-loaded entries: a cache file from a
// different simulator configuration simply never hits. Storage is the
// bounded XOR-tagged atomic table of internal/cachetable.

// simCacheEntries bounds the kernel table: 2^16 slots × 16 bytes =
// 1 MiB, comfortably above the distinct-kernel count of a full Table 1
// evaluation sweep.
const simCacheEntries = 1 << 16

// simHintEntries bounds the per-body period-hint table: hints are one
// word per distinct body (not per body × iteration counts), so a much
// smaller table than the kernel cache suffices.
const simHintEntries = 1 << 12

// The spill files inside a -cache-dir, and their content keys. Each
// entry's own key carries the machine fingerprint, so the file-level
// content keys are fixed constants that change only with the meaning of
// the entry keys: a file written under an older key encoding fails to
// load with cachestore.ErrContentKey and that half of the cache
// cold-starts, instead of seeding slots no lookup can reach.
const (
	simCacheFile        = "simcache.pmc"
	hintCacheFile       = "period-hints.pmc"
	simCacheContentKey  = 0x706d65766f736d32 // "pmevosm2"
	hintCacheContentKey = 0x706d65766f686e32 // "pmevohn2"
)

// SimCache is a kernel-simulation cache: the steady-state cycles per
// iteration of each loop body by kernel key, the per-body period hints,
// and the set of keys seeded from disk. Pollution across the harnesses
// that share one is harmless by construction: equal keys map to equal
// deterministic simulation results. Lookups are lock-free and safe for
// concurrent use (MeasureAll fans simulations out over all cores).
//
// The hint table maps a body key (the kernel key without iteration
// counts) to the steady-state period in body iterations detected by a
// previous simulation of that body. When the
// kernel table misses only because the iteration counts differ — the
// calibration sweep and harnesses with different warmup/measure budgets
// re-simulate bodies the cache has already seen — the stored period is
// passed back as a detection hint, so the re-run skips most detection
// hashing (machine.SteadyStateCyclesHinted). Hints affect only cost,
// never results: a stale or colliding hint at worst delays detection.
type SimCache struct {
	// alloc defers the tables (1 MiB + 64 KiB) to first use, so a
	// harness that never simulates costs nothing to build.
	alloc   sync.Once
	kernels *cachetable.Table // float64 bits by kernelKey
	hints   *cachetable.Table // period in iterations by hintKey
	// warm is the set of keys seeded by the last Load that found a
	// kernel file, used to attribute hits to the warm start
	// (CacheStats.SimWarmHits). The map is immutable once published.
	warm atomic.Pointer[map[uint64]struct{}]
	// mu serializes Load and Spill against each other.
	mu sync.Mutex
}

// NewSimCache returns an empty cache.
func NewSimCache() *SimCache { return &SimCache{} }

func (c *SimCache) tables() (kernels, hints *cachetable.Table) {
	c.alloc.Do(func() {
		c.kernels = cachetable.New(simCacheEntries)
		c.hints = cachetable.New(simHintEntries)
	})
	return c.kernels, c.hints
}

// ErrNoValidHints is Load's diagnostic for a well-formed hint file none
// of whose values fall in the valid period range.
var ErrNoValidHints = errors.New("no hint in valid period range")

// Load warm-starts the cache from the spill files in a tool's
// -cache-dir (simcache.pmc and period-hints.pmc), returning the number
// of kernel entries and period hints seeded. err carries a typed
// diagnostic for each file that seeded nothing (errors.Is against
// cachestore.ErrMissing et al., or ErrNoValidHints). It never fails
// into a result path: a missing, truncated, corrupt, or mismatched file
// — or a hint file whose values are outside the valid period range —
// seeds nothing and that half of the cache cold-starts (cachestore's
// contract). Hints only gate which iterations detection hashes, so even
// an adversarial hint file cannot change results, only delay detection.
// Call Load before measurement begins; loading concurrently with
// in-flight measurements would blur warm-hit attribution (results would
// still be exact).
func (c *SimCache) Load(dir string) (kernels, hints int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kt, ht := c.tables()
	entries, kerr := cachestore.Load(filepath.Join(dir, simCacheFile), cachestore.SchemaSimCache, simCacheContentKey)
	if len(entries) > 0 {
		warm := make(map[uint64]struct{}, len(entries))
		for _, e := range entries {
			warm[e.Key] = struct{}{}
		}
		kernels = kt.LoadEntries(entries)
		c.warm.Store(&warm)
	}
	entries, herr := cachestore.Load(filepath.Join(dir, hintCacheFile), cachestore.SchemaPeriodHints, hintCacheContentKey)
	// Drop out-of-range values at the door (the read path re-checks, so
	// this only keeps garbage from occupying slots).
	valid := entries[:0]
	for _, e := range entries {
		if e.Val > 1 && e.Val <= maxPeriodHint {
			valid = append(valid, e)
		}
	}
	if len(entries) > 0 && len(valid) == 0 {
		herr = ErrNoValidHints
	}
	hints = ht.LoadEntries(valid)
	// One line naming each file that seeded nothing; both diagnostics
	// stay visible to errors.Is.
	switch {
	case kerr != nil && herr != nil:
		err = fmt.Errorf("%s: %w; %s: %w", simCacheFile, kerr, hintCacheFile, herr)
	case kerr != nil:
		err = fmt.Errorf("%s: %w", simCacheFile, kerr)
	case herr != nil:
		err = fmt.Errorf("%s: %w", hintCacheFile, herr)
	}
	return kernels, hints, err
}

// Spill atomically writes the kernel table and the hint table into dir
// (temp file + rename per file; see cachestore.Save), attempting both
// and joining their errors. Call it at a quiesce point — process exit,
// or between benchmark phases — never concurrently with measurement. A
// lost spill only costs the next invocation recomputation.
func (c *SimCache) Spill(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	kt, ht := c.tables()
	return errors.Join(
		cachestore.SaveTable(filepath.Join(dir, simCacheFile), cachestore.SchemaSimCache, simCacheContentKey, kt),
		cachestore.SaveTable(filepath.Join(dir, hintCacheFile), cachestore.SchemaPeriodHints, hintCacheContentKey, ht),
	)
}

// Kernel keys.
//
// A key is computed from the experiment before any loop is built, so a
// hit does no register allocation or lowering; only a miss builds the
// body it then simulates. It hashes, in order: kernelKeySalt, the
// machine fingerprint, the warmup and measure iteration counts, the four
// register-pool sizes, the body length, and the signature of every body
// instruction in unroll order (instances × the expanded, normalized
// experiment). A form's signature (formSignatures) combines its spec
// content fingerprint with the operand shape the allocator and
// ToMachineInst read — kind, plus class for registers, plus the read and
// write flags — and ends with a terminator, so operand lists cannot split
// differently across neighbouring forms. Immediates contribute nothing:
// they neither advance the allocator nor reach the simulator.
//
// Why equal keys imply equal simulations. The allocator is
// deterministic: each operand it assigns depends only on the pool sizes
// and the shapes of the operands allocated before it (its clocks advance
// once per instruction, the memory offset once per memory operand), and
// lowering reads only those assigned operands and the shapes. So the
// lowered body — every register read and write list — is a function of
// (pools, the sequence of operand shapes), which the key covers. The
// simulator sees each instruction's spec only through its content
// (latency and µop ports; machine.SpecFingerprint), and the machine
// fingerprint covers its configuration. Equal keys therefore mean equal
// canonical bodies on equal machines under equal iteration counts, up to
// the ~2^-64 collision odds of the decomposition fingerprints. The
// converse does not hold, and need not: a key can be finer than the body
// (two shape sequences may allocate to identical register lists), which
// only costs a redundant simulation. Count-scaled aliases ({i→1} and
// {i→2} unroll to the same 50 signatures) and forms of one semantic class
// (equal specs and operand shapes) still collapse to one simulation.
//
// The period-hint key is the same hash under hintKeySalt without the
// iteration counts, so a body simulated under one (warmup, measure)
// budget shares its detected period with every other budget.
const (
	kernelKeySalt = 0x706d65766f6b726e // "pmevokrn"
	hintKeySalt   = 0x706d65766f686b32 // "pmevohk2"
	formSigSalt   = 0x706d65766f736967 // "pmevosig"
)

// Operand-shape words of a form signature. A register operand adds its
// class as a second word; the terminator differs from every leading word.
const (
	sigEnd = iota
	sigReg = 4 // | read<<1 | write
	sigMem = 8 // | read<<1 | write
)

// formSignatures returns the kernel-key signature of every form of the
// ISA (see "Kernel keys" above).
func formSignatures(mach *machine.Machine, a *isa.ISA) []uint64 {
	sig := make([]uint64, a.NumForms())
	for id := range sig {
		f := a.Form(id)
		h := portmap.CombineFingerprints(formSigSalt, mach.SpecFingerprint(id))
		for _, op := range f.Operands {
			rw := uint64(0)
			if op.Read {
				rw |= 2
			}
			if op.Write {
				rw |= 1
			}
			switch op.Kind {
			case isa.KindReg:
				h = portmap.CombineFingerprints(h, sigReg|rw)
				h = portmap.CombineFingerprints(h, uint64(op.Class))
			case isa.KindMem:
				h = portmap.CombineFingerprints(h, sigMem|rw)
			}
		}
		sig[id] = portmap.CombineFingerprints(h, sigEnd)
	}
	return sig
}

// kernelKey is the kernel-table key of a normalized, validated
// experiment unrolled instances times, simulated under the given
// iteration counts.
func (h *Harness) kernelKey(e portmap.Experiment, instances, warmup, measure int) uint64 {
	key := portmap.CombineFingerprints(kernelKeySalt, h.mach.Fingerprint())
	key = portmap.CombineFingerprints(key, uint64(warmup))
	key = portmap.CombineFingerprints(key, uint64(measure))
	return h.combineBody(key, e, instances)
}

// hintKey is kernelKey without the iteration counts, under its own salt.
func (h *Harness) hintKey(e portmap.Experiment, instances int) uint64 {
	key := portmap.CombineFingerprints(hintKeySalt, h.mach.Fingerprint())
	return h.combineBody(key, e, instances)
}

// combineBody folds the pool sizes, the body length and the body's form
// signatures in unroll order into key (shared by kernelKey and hintKey).
func (h *Harness) combineBody(key uint64, e portmap.Experiment, instances int) uint64 {
	p := h.opts.Pools
	key = portmap.CombineFingerprints(key, uint64(p.GPR))
	key = portmap.CombineFingerprints(key, uint64(p.Vec))
	key = portmap.CombineFingerprints(key, uint64(p.FPR))
	key = portmap.CombineFingerprints(key, uint64(p.MemOffsets))
	key = portmap.CombineFingerprints(key, uint64(instances*e.TotalCount()))
	for k := 0; k < instances; k++ {
		for _, t := range e {
			s := h.sig[t.Inst]
			for j := 0; j < t.Count; j++ {
				key = portmap.CombineFingerprints(key, s)
			}
		}
	}
	if key == 0 {
		key = 1 // 0 would read an empty slot as a hit
	}
	return key
}

// CacheStats counts kernel-cache traffic. Hits + misses equals the
// number of steady-state simulations requested; SimWarmHits is the
// subset of hits whose key was seeded from disk by SimCache.Load;
// SimPeriodHints is the number of simulations (cache misses and
// calibration probes) that ran with a period hint recovered from an
// earlier simulation of the same body. Without a cache all stay zero.
type CacheStats struct {
	SimHits        int64
	SimMisses      int64
	SimWarmHits    int64
	SimPeriodHints int64
}

// CacheStats returns a snapshot of this harness's kernel-cache
// counters: traffic requested by this harness. A hit counted here may
// have been seeded by another harness sharing the same SimCache (or by
// a disk load — that subset is SimWarmHits).
func (h *Harness) CacheStats() CacheStats {
	return CacheStats{
		SimHits:        h.simHits.Load(),
		SimMisses:      h.simMisses.Load(),
		SimWarmHits:    h.simWarmHits.Load(),
		SimPeriodHints: h.simHintHits.Load(),
	}
}

// maxPeriodHint caps hint values read from the hint table: a key
// collision (or a stale slot) could surface an arbitrary word, and
// modulo-gating detection with an absurd period would postpone it past
// the budget for no benefit. Genuinely detected periods are bounded by
// the snapshot ring; anything larger is dropped on read.
const maxPeriodHint = 1 << 20

// steadyState returns the noiseless steady-state cycles per loop
// iteration of an experiment under the given iteration counts, and the
// number of experiment instances per iteration. It is the one path from
// an experiment to a simulation (Measure, MeasureAll, EmitProgram and
// Calibrate all use it): it validates the experiment, derives the unroll,
// and, given a SimCache, looks the kernel up before building anything —
// the loop is built, lowered and simulated only on a miss, whose period
// is then hinted by any earlier simulation of the same body under other
// iteration counts (machine.SteadyStateCyclesHinted; results are
// bit-identical with or without a hint). Safe for concurrent use
// (MeasureAll fans simulations out over all cores).
func (h *Harness) steadyState(e portmap.Experiment, warmup, measure int) (float64, int, error) {
	e, instances, err := h.unroll(e)
	if err != nil {
		return 0, 0, err
	}
	c := h.opts.SimCache
	if c == nil {
		// The uncached path is the pre-cache cost model exactly: no key
		// hashing, no period hints. Benchmarks that compare against it
		// measure the full caching layer, hints included.
		body, err := h.loweredBody(e, instances)
		if err != nil {
			return 0, 0, err
		}
		cyc, err := h.mach.SteadyStateCycles(body, warmup, measure)
		return cyc, instances, err
	}
	kernels, hints := c.tables()
	key := h.kernelKey(e, instances, warmup, measure)
	if v, ok := kernels.Get(key); ok {
		h.simHits.Add(1)
		if warm := c.warm.Load(); warm != nil {
			if _, ok := (*warm)[key]; ok {
				h.simWarmHits.Add(1)
			}
		}
		return math.Float64frombits(v), instances, nil
	}
	body, err := h.loweredBody(e, instances)
	if err != nil {
		return 0, 0, err
	}
	hk := h.hintKey(e, instances)
	hint := 0
	if v, ok := hints.Get(hk); ok && v > 1 && v <= maxPeriodHint {
		hint = int(v)
		h.simHintHits.Add(1)
	}
	cyc, res, err := h.mach.SteadyStateCyclesHinted(body, warmup, measure, hint)
	if err != nil {
		return 0, 0, err
	}
	if p := res.DetectedPeriodIters; p > 1 && p != hint {
		hints.Put(hk, uint64(p))
	}
	kernels.Put(key, math.Float64bits(cyc))
	h.simMisses.Add(1)
	return cyc, instances, nil
}

// loweredBody builds the simulator loop body of a normalized, validated
// experiment unrolled instances times.
func (h *Harness) loweredBody(e portmap.Experiment, instances int) ([]machine.Inst, error) {
	body, err := h.concreteBody(e, instances)
	if err != nil {
		return nil, err
	}
	return ToMachineInsts(body), nil
}
