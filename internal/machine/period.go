package machine

import (
	"math"
	"math/bits"
)

// Steady-state period detection.
//
// The simulator is deterministic, so its execution is a function of the
// current state alone — and that state can be expressed relative to the
// current cycle: every comparison Run performs is of the form
// "completion/busy cycle > now" or "load[i] < load[j]", never against an
// absolute cycle. Two top-of-cycle states whose cycle-relative encodings
// are equal therefore evolve identically (shifted in time), which makes
// execution exactly periodic from the first recurrence onward.
//
// detector hashes a canonical cycle-relative snapshot at the top of each
// cycle and records (iteration, cycle, statistics) per distinct state.
// When a state recurs, Run extrapolates: with period P iterations / C
// cycles, the remaining iterations split into k whole periods plus a
// remainder r < P; Run simulates the remainder (and the window drain)
// once and adds k-1 copies of the per-period statistic deltas. The
// result is bit-identical to full simulation — the arithmetic is exact —
// up to the ~2^-128 odds of a two-lane hash collision, far below the
// ~2^-64 regime of the decomposition fingerprints.
//
// The canonical encoding:
//
//   - stream position (bodyIdx, uopIdx) and the window flights in order
//     (ports, block, latency, remaining µops, source cells);
//   - completion cells, encoded as max(completion-now, 0) when written —
//     a cell ≤ now stays ready forever, so all past completions are
//     equivalent — or as a canonical identity when still pending. A
//     pending cell always belongs to an instruction with un-issued µops,
//     whose flights sit in the window (or are the instruction currently
//     dispatching), so first-encounter numbering over the window + the
//     dispatch stream names every pending cell deterministically;
//   - per-port busy deltas max(busyUntil-now, 0);
//   - for the LeastLoaded policy, per-port issue counts normalized
//     within port *components*: the scheduler only ever compares loads
//     of ports that co-occur in some µop's allowed set (transitively),
//     so loads are encoded relative to the minimum of their component —
//     absolute counts grow without bound, but steady-state deltas within
//     a component are periodic;
//   - the register file, folded commutatively (registers resolved to the
//     always-ready state are skipped — they are indistinguishable from
//     never-written registers).
type detector struct {
	table map[[2]uint64]periodRec
	// arena stores per-snapshot port-µop counts; periodRec.portOff
	// indexes into it.
	arena []int64

	// comp[k] is port k's component id for load normalization; compMin
	// is per-snapshot scratch for the component minima.
	comp    []int32
	compMin []int64

	// Pending-cell identity numbering, reset per snapshot via epoch.
	// The epoch counter is monotonic across the detector's whole
	// lifetime (scratch is pooled and reused across runs): resetting it
	// would let stale cellEpoch stamps from a previous run's body alias
	// a fresh snapshot's numbering and corrupt the canonical encoding.
	cellEpoch []int64
	cellID    []int32
	epoch     int64
	nextID    int32
}

// periodRec remembers the first occurrence of a state.
type periodRec struct {
	iter    int
	cycle   int64
	portOff int

	instructions int64
	uops         int64
	windowFull   int64
	occupancy    int64
}

// mixA is the splitmix64 finalizer; mixB is the murmur3 finalizer. The
// two lanes of the state hash use one each, so a collision must defeat
// both mixers on the same encoding stream.
func mixA(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func mixB(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// lanes is the two-lane incremental state hash.
type lanes struct{ a, b uint64 }

func (l *lanes) add(x uint64) {
	l.a = mixA(l.a ^ x)
	l.b = mixB(l.b ^ (x + 0x9e3779b97f4a7c15))
}

// start prepares the detector for a run: it clears the recurrence table
// and computes the port components of the body's spec set (union-find
// over every µop's allowed-port set).
func (d *detector) start(s *sim) {
	if d.table == nil {
		d.table = make(map[[2]uint64]periodRec)
	} else {
		clear(d.table)
	}
	d.arena = d.arena[:0]
	// d.epoch deliberately NOT reset: see the field comment.

	n := s.m.cfg.NumPorts
	if cap(d.comp) < n {
		d.comp = make([]int32, n)
		d.compMin = make([]int64, n)
	}
	d.comp = d.comp[:n]
	d.compMin = d.compMin[:n]
	for k := 0; k < n; k++ {
		d.comp[k] = int32(k)
	}
	var find func(k int32) int32
	find = func(k int32) int32 {
		for d.comp[k] != k {
			d.comp[k] = d.comp[d.comp[k]] // path halving
			k = d.comp[k]
		}
		return k
	}
	for _, in := range s.body {
		for _, u := range s.m.specs[in.Spec].Uops {
			root := int32(-1)
			for v := uint64(u.Ports); v != 0; v &= v - 1 {
				p := find(int32(bits.TrailingZeros64(v)))
				if root < 0 {
					root = p
				} else {
					d.comp[p] = root
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		d.comp[k] = find(int32(k))
	}
}

// encodeCell canonically encodes one completion cell relative to the
// current cycle: even values are resolved completion deltas (0 = ready
// now or earlier), odd values carry the first-encounter identity of a
// still-pending cell.
func (d *detector) encodeCell(s *sim, ci int32) uint64 {
	v := s.sc.cells[ci]
	if v != notReady {
		delta := v - s.cycle
		if delta <= 0 {
			return 0
		}
		return uint64(delta) << 1
	}
	if d.cellEpoch[ci] != d.epoch {
		d.cellEpoch[ci] = d.epoch
		d.cellID[ci] = d.nextID
		d.nextID++
	}
	return uint64(d.cellID[ci])<<1 | 1
}

// check hashes the current top-of-cycle state. If the state was seen
// before, it returns that occurrence; otherwise it records the state.
// Only called while !done(), so the dispatch-stream fields are live.
func (d *detector) check(s *sim) (periodRec, bool) {
	sc := s.sc
	if len(d.cellEpoch) < len(sc.cells) {
		grown := make([]int64, len(sc.cells)+len(sc.cells)/2)
		copy(grown, d.cellEpoch)
		d.cellEpoch = grown
		ids := make([]int32, len(grown))
		copy(ids, d.cellID)
		d.cellID = ids
	}
	d.epoch++
	d.nextID = 0

	var h lanes
	h.add(uint64(s.bodyIdx)<<20 | uint64(s.uopIdx))

	cfg := &s.m.cfg
	for k := 0; k < cfg.NumPorts; k++ {
		delta := sc.busy[k] - s.cycle
		if delta < 0 {
			delta = 0
		}
		h.add(uint64(delta))
	}
	if cfg.Policy == LeastLoaded {
		for k := 0; k < cfg.NumPorts; k++ {
			d.compMin[d.comp[k]] = math.MaxInt64
		}
		for k := 0; k < cfg.NumPorts; k++ {
			if c := d.comp[k]; sc.load[k] < d.compMin[c] {
				d.compMin[c] = sc.load[k]
			}
		}
		for k := 0; k < cfg.NumPorts; k++ {
			h.add(uint64(sc.load[k] - d.compMin[d.comp[k]]))
		}
	}

	h.add(uint64(len(sc.window)))
	for fi := range sc.window {
		f := &sc.window[fi]
		h.add(uint64(f.ports))
		h.add(uint64(f.block)<<40 | uint64(f.latency)<<8 | uint64(f.srcLen))
		h.add(d.encodeCell(s, f.cell))
		h.add(uint64(sc.lefts[f.left]))
		for _, ci := range sc.srcIdx[f.srcOff : f.srcOff+f.srcLen] {
			h.add(d.encodeCell(s, ci))
		}
	}

	// The instruction currently being dispatched.
	h.add(d.encodeCell(s, s.curCell))
	h.add(uint64(sc.lefts[s.curLeft]))
	for _, ci := range sc.srcIdx[s.curSrcOff : s.curSrcOff+s.curSrcLen] {
		h.add(d.encodeCell(s, ci))
	}

	// Register file, folded commutatively (map order is arbitrary).
	// Every pending cell reachable here was already numbered by the
	// window/stream traversal above, so the per-register terms are
	// deterministic.
	var ra, rb uint64
	for reg, ci := range sc.reg {
		e := d.encodeCell(s, ci)
		if e == 0 {
			continue // ready now ≡ never written
		}
		x := mixA(uint64(reg)+0x9e3779b97f4a7c15) ^ mixB(e)
		ra += mixA(x)
		rb += mixB(x)
	}
	h.add(ra)
	h.add(rb)

	key := [2]uint64{h.a, h.b}
	if rec, ok := d.table[key]; ok {
		return rec, true
	}
	off := len(d.arena)
	d.arena = append(d.arena, sc.portUops...)
	d.table[key] = periodRec{
		iter:         s.iter,
		cycle:        s.cycle,
		portOff:      off,
		instructions: s.instructions,
		uops:         s.uops,
		windowFull:   s.windowFull,
		occupancy:    s.occupancy,
	}
	return periodRec{}, false
}
