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
// Keys hash the machine fingerprint, the iteration counts, and the
// canonical body (spec-content fingerprints plus register read/write
// lists); key equality stands in for input equality at the same ~2^-64
// odds as the decomposition fingerprints. The machine fingerprint in
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

// The spill files inside a -cache-dir, and their content keys ("pmevosim",
// "pmevohnt"). Each entry's own key carries the machine fingerprint, so
// the file-level content keys are fixed schema-style constants.
const (
	simCacheFile        = "simcache.pmc"
	hintCacheFile       = "period-hints.pmc"
	simCacheContentKey  = 0x706d65766f73696d
	hintCacheContentKey = 0x706d65766f686e74
)

// SimCache is a kernel-simulation cache: the steady-state cycles per
// iteration of each canonical loop body, the per-body period hints, and
// the set of keys seeded from disk. Pollution across the harnesses that
// share one is harmless by construction: equal keys map to equal
// deterministic simulation results. Lookups are lock-free and safe for
// concurrent use (MeasureAll fans simulations out over all cores).
//
// The hint table maps a body fingerprint (machine + canonical body,
// without iteration counts) to the steady-state period in body
// iterations detected by a previous simulation of that body. When the
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
	kernels *cachetable.Table // float64 bits by simKey
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

// simKey hashes one steady-state simulation request into its canonical
// form: instructions are identified by spec *content* fingerprint, not
// spec ID, so two bodies whose instructions decompose and behave
// identically alias even when they reference different forms. Real form
// sets make this the dominant redundancy: all instruction forms of a
// semantic class (add/sub/and/... on the same operand shapes) share one
// simulator spec, so their kernels — identical up to form IDs — collapse
// to one simulation. The length-prefixed encoding of reads/writes keeps
// genuinely distinct bodies from aliasing; the two list lengths are
// folded as separate fingerprint combines (packing them into one shifted
// word let ≥ 2^16-entry write lists alias other length splits).
func simKey(mach *machine.Machine, warmup, measure int, body []machine.Inst) uint64 {
	key := portmap.CombineFingerprints(0x706d65766f73696d, mach.Fingerprint()) // "pmevosim"
	key = portmap.CombineFingerprints(key, uint64(warmup))
	key = portmap.CombineFingerprints(key, uint64(measure))
	key = combineBody(key, mach, body)
	if key == 0 {
		key = 1 // 0 would read an empty slot as a hit
	}
	return key
}

// hintKey is the per-body period-hint key: simKey's canonical body
// encoding without the iteration counts, under its own salt, so a body
// simulated under one (warmup, measure) budget shares its detected
// period with every other budget.
func hintKey(mach *machine.Machine, body []machine.Inst) uint64 {
	key := portmap.CombineFingerprints(0x706d65766f686e74, mach.Fingerprint()) // "pmevohnt"
	key = combineBody(key, mach, body)
	if key == 0 {
		key = 1
	}
	return key
}

// combineBody folds the canonical loop-body encoding into key (shared by
// simKey and hintKey; see simKey for why spec-content fingerprints and
// length-prefixed register lists).
func combineBody(key uint64, mach *machine.Machine, body []machine.Inst) uint64 {
	for i := range body {
		in := &body[i]
		key = portmap.CombineFingerprints(key, mach.SpecFingerprint(in.Spec))
		key = portmap.CombineFingerprints(key, uint64(len(in.Reads)))
		key = portmap.CombineFingerprints(key, uint64(len(in.Writes)))
		for _, r := range in.Reads {
			key = portmap.CombineFingerprints(key, uint64(r))
		}
		for _, w := range in.Writes {
			key = portmap.CombineFingerprints(key, uint64(w))
		}
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

// steadyState returns the noiseless steady-state cycles per iteration of
// a loop body, through the harness's SimCache if it has one. Safe for
// concurrent use (MeasureAll fans simulations out over all cores).
func (h *Harness) steadyState(body []machine.Inst) (float64, error) {
	c := h.opts.SimCache
	if c == nil {
		// The uncached path is the pre-cache cost model exactly: no key
		// hashing, no period hints. Benchmarks that compare against it
		// measure the full caching layer, hints included.
		return h.mach.SteadyStateCycles(body, h.opts.WarmupIters, h.opts.MeasureIters)
	}
	kernels, _ := c.tables()
	key := simKey(h.mach, h.opts.WarmupIters, h.opts.MeasureIters, body)
	if v, ok := kernels.Get(key); ok {
		h.simHits.Add(1)
		if warm := c.warm.Load(); warm != nil {
			if _, ok := (*warm)[key]; ok {
				h.simWarmHits.Add(1)
			}
		}
		return math.Float64frombits(v), nil
	}
	v, err := h.steadyStateHinted(body, h.opts.WarmupIters, h.opts.MeasureIters)
	if err != nil {
		return 0, err
	}
	kernels.Put(key, math.Float64bits(v))
	h.simMisses.Add(1)
	return v, nil
}

// steadyStateHinted simulates a body under the given iteration budget,
// consulting the harness's hint table (the SimCache must be non-nil): a
// kernel-cache miss that is "the same body under different iteration
// counts" — the calibration sweep, or harnesses with different
// warmup/measure budgets — reuses the period detected by the earlier
// run, so detection re-engages with almost no hashing. Whatever period
// this run detects is stored back for the next one. Results are
// bit-identical with or without a hint (hints only gate which
// iterations are hashed; machine.SteadyStateCyclesHinted).
func (h *Harness) steadyStateHinted(body []machine.Inst, warmup, measure int) (float64, error) {
	_, hints := h.opts.SimCache.tables()
	hk := hintKey(h.mach, body)
	hint := 0
	if v, ok := hints.Get(hk); ok && v > 1 && v <= maxPeriodHint {
		hint = int(v)
		h.simHintHits.Add(1)
	}
	cyc, res, err := h.mach.SteadyStateCyclesHinted(body, warmup, measure, hint)
	if err != nil {
		return 0, err
	}
	if p := res.DetectedPeriodIters; p > 1 && p != hint {
		hints.Put(hk, uint64(p))
	}
	return cyc, nil
}
