package evo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"pmevo/internal/cachestore"
	"pmevo/internal/portmap"
)

// Crash-safe checkpoint/resume for the evolutionary run.
//
// A checkpoint captures everything the generational loop needs to
// continue bit-identically: per-island populations (with cached
// objectives), per-island RNG stream positions (seed is implied by
// Options, the position is a draw count — see countingSource),
// generation counters, epoch positions, and per-generation history.
// It deliberately captures state only at generation boundaries: a
// cancellation mid-batch rolls back to the last completed generation,
// whose state is the last consistent one (children of the aborted
// generation were never selected, and the recorded draw count predates
// their recombination).
//
// The checkpoint file is a cachestore blob (SchemaEvoCheckpoint) gated
// by a content key hashing the experiment set and every option that
// shapes the generational trajectory. MaxGenerations is deliberately
// excluded: the trajectory through generation g is independent of the
// budget, so a resume may extend the budget and continue — bit-identical
// to having run with the larger budget from the start (pinned by golden
// test). The blob is the only file a checkpoint directory holds that
// resume reads: cache spills that older versions wrote next to it are
// ignored.
//
// Degradation contract (same as every cachestore consumer): a missing,
// damaged, foreign, or incompatible checkpoint never fails a run —
// Resume logs a diagnostic and cold-starts. Checkpoint writes are
// atomic (temp file + rename through the faultfs seam) and write
// failures only log: losing a checkpoint costs re-evolution, never
// correctness.

// ckptPayloadVersion versions the blob payload layout (the cachestore
// frame has its own format version; this one covers the evo-specific
// encoding inside it).
const ckptPayloadVersion uint32 = 1

const (
	ckptModeSingle  byte = 0
	ckptModeIslands byte = 1
)

// defaultCheckpointInterval is the periodic checkpoint cadence (in
// generations) when Options.CheckpointInterval is 0.
const defaultCheckpointInterval = 10

// planCheckpointInterval clamps Options.CheckpointInterval in the
// planIslands style: 0 selects the default, negative disables periodic
// checkpoints (barrier, interruption, and completion checkpoints still
// happen — "never" is spelled CheckpointDir == "").
func planCheckpointInterval(opts Options) int {
	switch {
	case opts.CheckpointInterval == 0:
		return defaultCheckpointInterval
	case opts.CheckpointInterval < 0:
		return -1
	default:
		return opts.CheckpointInterval
	}
}

// CheckpointPath returns the conventional checkpoint blob file inside a
// -checkpoint-dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, "evo-checkpoint.pmc") }

// ckptIsland is the checkpointed state of one island (or of the single
// population, which is encoded as one island in mode ckptModeSingle).
type ckptIsland struct {
	draws      uint64 // RNG state advances at the last generation boundary
	gens       int
	epochStart int // generation count when the in-flight epoch began
	inited     bool
	converged  bool
	history    []GenStats
	pop        []individual
}

// ckptState is a decoded checkpoint.
type ckptState struct {
	mode    byte
	islands []ckptIsland
}

// checkpointKey derives the content key gating a checkpoint file: the
// experiment-set fingerprint combined with every option that shapes the
// generational trajectory. Two runs agree on this key iff they walk the
// same trajectory generation by generation — which is exactly when
// resuming one from the other's checkpoint is sound. Budget
// (MaxGenerations), local search, Workers, and cache sizing are
// excluded: none of them changes what generation g computes.
func checkpointKey(setFingerprint uint64, opts Options, plan islandPlan) uint64 {
	h := portmap.CombineFingerprints(0x706d65766f636b70, uint64(ckptPayloadVersion)) // "pmevockp"
	h = portmap.CombineFingerprints(h, setFingerprint)
	h = portmap.CombineFingerprints(h, uint64(opts.PopulationSize))
	h = portmap.CombineFingerprints(h, uint64(opts.NumPorts))
	h = portmap.CombineFingerprints(h, uint64(opts.MaxUopsPerInst))
	h = portmap.CombineFingerprints(h, math.Float64bits(opts.MutationRate))
	h = portmap.CombineFingerprints(h, boolBit(opts.VolumeObjective))
	h = portmap.CombineFingerprints(h, math.Float64bits(opts.AccuracyWeight))
	h = portmap.CombineFingerprints(h, uint64(opts.Seed))
	h = portmap.CombineFingerprints(h, math.Float64bits(opts.ConvergenceEps))
	h = portmap.CombineFingerprints(h, uint64(plan.islands))
	h = portmap.CombineFingerprints(h, uint64(plan.interval))
	h = portmap.CombineFingerprints(h, uint64(plan.count))
	for _, sm := range opts.SeedMappings {
		h = portmap.CombineFingerprints(h, sm.FingerprintAll())
	}
	if h == 0 {
		h = 1
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 2
	}
	return 1
}

// encodeCheckpoint renders the blob payload. All integers are
// little-endian; floats are stored as exact bit patterns, so a decoded
// individual carries byte-identical objectives.
func encodeCheckpoint(st *ckptState, numInsts, numPorts int) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, ckptPayloadVersion)
	b = append(b, st.mode)
	b = binary.LittleEndian.AppendUint32(b, uint32(numInsts))
	b = binary.LittleEndian.AppendUint32(b, uint32(numPorts))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.islands)))
	for i := range st.islands {
		isl := &st.islands[i]
		b = binary.LittleEndian.AppendUint64(b, isl.draws)
		b = binary.LittleEndian.AppendUint64(b, uint64(isl.gens))
		b = binary.LittleEndian.AppendUint64(b, uint64(isl.epochStart))
		b = append(b, byte(boolBit(isl.inited)-1), byte(boolBit(isl.converged)-1))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(isl.history)))
		for _, h := range isl.history {
			b = binary.LittleEndian.AppendUint64(b, uint64(h.Generation))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.BestError))
			b = binary.LittleEndian.AppendUint64(b, uint64(h.BestVolume))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.MeanError))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(isl.pop)))
		for _, ind := range isl.pop {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ind.davg))
			b = binary.LittleEndian.AppendUint32(b, uint32(ind.volume))
			for inst := 0; inst < numInsts; inst++ {
				d := ind.m.Decomp[inst]
				b = binary.LittleEndian.AppendUint32(b, uint32(len(d)))
				for _, uc := range d {
					b = binary.LittleEndian.AppendUint64(b, uint64(uc.Ports))
					b = binary.LittleEndian.AppendUint32(b, uint32(uc.Count))
				}
			}
		}
	}
	return b
}

// ckptCursor is a bounds-checked little-endian reader over the payload.
type ckptCursor struct {
	b   []byte
	off int
	err error
}

func (c *ckptCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) {
		c.err = errors.New("checkpoint payload overrun")
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

func (c *ckptCursor) u8() byte {
	s := c.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (c *ckptCursor) u32() uint32 {
	s := c.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (c *ckptCursor) u64() uint64 {
	s := c.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// decodeCheckpoint parses and validates a blob payload against the
// run's geometry. Any inconsistency is an error — the caller treats it
// exactly like a corrupt file and cold-starts.
func decodeCheckpoint(payload []byte, numInsts, numPorts int) (*ckptState, error) {
	c := &ckptCursor{b: payload}
	if v := c.u32(); c.err == nil && v != ckptPayloadVersion {
		return nil, fmt.Errorf("checkpoint payload version %d, want %d", v, ckptPayloadVersion)
	}
	st := &ckptState{mode: c.u8()}
	if st.mode != ckptModeSingle && st.mode != ckptModeIslands {
		return nil, fmt.Errorf("unknown checkpoint mode %d", st.mode)
	}
	if n := int(c.u32()); c.err == nil && n != numInsts {
		return nil, fmt.Errorf("checkpoint for %d instructions, want %d", n, numInsts)
	}
	if p := int(c.u32()); c.err == nil && p != numPorts {
		return nil, fmt.Errorf("checkpoint for %d ports, want %d", p, numPorts)
	}
	nIslands := int(c.u32())
	if c.err == nil && (nIslands < 1 || nIslands > 1<<16) {
		return nil, fmt.Errorf("implausible island count %d", nIslands)
	}
	for k := 0; k < nIslands && c.err == nil; k++ {
		isl := ckptIsland{
			draws:      c.u64(),
			gens:       int(c.u64()),
			epochStart: int(c.u64()),
			inited:     c.u8() != 0,
			converged:  c.u8() != 0,
		}
		nHist := int(c.u32())
		if c.err == nil && nHist > 1<<24 {
			return nil, fmt.Errorf("implausible history length %d", nHist)
		}
		for i := 0; i < nHist && c.err == nil; i++ {
			isl.history = append(isl.history, GenStats{
				Generation: int(c.u64()),
				BestError:  math.Float64frombits(c.u64()),
				BestVolume: int(c.u64()),
				MeanError:  math.Float64frombits(c.u64()),
			})
		}
		nPop := int(c.u32())
		if c.err == nil && (nPop < 1 || nPop > 1<<24) {
			return nil, fmt.Errorf("implausible population size %d", nPop)
		}
		for i := 0; i < nPop && c.err == nil; i++ {
			ind := individual{
				davg:   math.Float64frombits(c.u64()),
				volume: int(c.u32()),
			}
			m := portmap.NewMapping(numInsts, numPorts)
			for inst := 0; inst < numInsts && c.err == nil; inst++ {
				nUops := int(c.u32())
				if c.err == nil && (nUops < 1 || nUops > 1<<16) {
					return nil, fmt.Errorf("implausible uop count %d", nUops)
				}
				ucs := make([]portmap.UopCount, 0, nUops)
				for u := 0; u < nUops && c.err == nil; u++ {
					ucs = append(ucs, portmap.UopCount{
						Ports: portmap.PortSet(c.u64()),
						Count: int(c.u32()),
					})
				}
				if c.err == nil {
					m.SetDecomp(inst, ucs)
				}
			}
			if c.err == nil {
				if err := m.Validate(); err != nil {
					return nil, fmt.Errorf("checkpointed mapping invalid: %w", err)
				}
				ind.m = m
				isl.pop = append(isl.pop, ind)
			}
		}
		st.islands = append(st.islands, isl)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("checkpoint payload has %d trailing bytes", len(c.b)-c.off)
	}
	return st, nil
}

// checkpointer owns the run's checkpoint writes. All methods are
// called from the coordinator goroutine at quiesce points (generation
// boundaries, epoch barriers, interruption, completion) — never
// concurrently with evaluation. A nil checkpointer (checkpointing
// disabled) turns every method into a no-op.
type checkpointer struct {
	dir      string
	interval int // periodic cadence in generations; < 0: periodic off
	key      uint64
	numInsts int
	numPorts int
	logf     func(string, ...any)

	lastGens int    // generations at the last periodic save
	lastSig  uint64 // state signature of the last save, to skip no-progress rewrites
}

func (c *checkpointer) enabled() bool { return c != nil && c.dir != "" }

// saveState encodes and atomically lands the checkpoint blob.
// Failures are logged and swallowed: a lost checkpoint costs
// re-evolution after a crash, never correctness — and the previous
// checkpoint file, if any, survives any failed write (atomicity is
// pinned by the cachestore fault-injection tests).
func (c *checkpointer) saveState(st *ckptState, gensDone int) {
	sig := stateSig(st)
	if sig == c.lastSig {
		c.lastGens = gensDone
		return
	}
	payload := encodeCheckpoint(st, c.numInsts, c.numPorts)
	if err := cachestore.SaveBlob(CheckpointPath(c.dir), cachestore.SchemaEvoCheckpoint, c.key, payload); err != nil {
		c.log("checkpoint save failed (run continues): %v", err)
		return
	}
	c.lastSig = sig
	c.lastGens = gensDone
	c.log("checkpoint written at generation %d (%s)", gensDone, CheckpointPath(c.dir))
}

// loadCheckpoint restores a checkpoint for resumption. Every failure
// mode — no file, damage, a checkpoint from different options or a
// different experiment set — returns an error the caller logs before
// cold-starting; nothing here can fail a run.
func loadCheckpoint(dir string, key uint64, numInsts, numPorts int) (*ckptState, error) {
	payload, err := cachestore.LoadBlob(CheckpointPath(dir), cachestore.SchemaEvoCheckpoint, key)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(payload, numInsts, numPorts)
}

// maybe writes a periodic checkpoint when at least `interval`
// generations completed since the last one. mk builds the state lazily
// so the boundary path pays nothing when no save is due.
func (c *checkpointer) maybe(gensDone int, mk func() *ckptState) {
	if !c.enabled() || c.interval < 0 || gensDone-c.lastGens < c.interval {
		return
	}
	c.saveState(mk(), gensDone)
}

// nextDue returns the generation count at which the next periodic
// checkpoint falls due — never at or before gensDone, so a failed save
// is retried at the next generation instead of stalling the epoch
// schedule — or math.MaxInt when periodic checkpoints are off.
func (c *checkpointer) nextDue(gensDone int) int {
	if !c.enabled() || c.interval < 0 {
		return math.MaxInt
	}
	return max(c.lastGens+c.interval, gensDone+1)
}

// save writes a checkpoint unconditionally: after every migration (the
// exchange rewrote populations outside the islands' generation loops,
// so a resume must never replay it), on interruption (the state the
// resume will continue from), and on completion of the generational
// phase (so a resume with a larger MaxGenerations extends the run).
func (c *checkpointer) save(gensDone int, mk func() *ckptState) {
	if !c.enabled() {
		return
	}
	c.saveState(mk(), gensDone)
}

func (c *checkpointer) log(format string, args ...any) {
	if c != nil && c.logf != nil {
		c.logf(format, args...)
	}
}

// stateSig fingerprints a state's progress so identical consecutive
// saves (e.g. a barrier immediately followed by completion) are
// written once.
func stateSig(st *ckptState) uint64 {
	h := uint64(0x736967) // "sig"
	for i := range st.islands {
		h = portmap.CombineFingerprints(h, st.islands[i].draws)
		h = portmap.CombineFingerprints(h, uint64(st.islands[i].gens))
		h = portmap.CombineFingerprints(h, uint64(st.islands[i].epochStart))
	}
	return h
}
