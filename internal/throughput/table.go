package throughput

import (
	"fmt"
	"math"
	"math/bits"

	"pmevo/internal/portmap"
)

// Per-instruction subset-sum tables.
//
// The subset-sum (zeta) transform at the heart of the bottleneck
// algorithm is linear in the µop masses, and an experiment's masses are
// a non-negative integer combination of its instructions' unit masses:
//
//	S_e[Q] = Σ_i s_i · T_i[Q],  T_i[Q] = Σ{n | (i,n,u) ∈ N, u ⊆ Q}
//
// so a caller evaluating many experiments over one mapping can zeta-
// transform each instruction once and reduce every experiment to the
// max-ratio scan max_Q S_e[Q]/|Q| over scaled sums of tables — no
// per-experiment flatten, merge, or transform. This is the engine
// fitness service's fast path: §4.1 experiments touch 1–2 instructions
// each, while each instruction occurs in O(#instructions) experiments.
//
// Class maxima and bound pruning. Beside its table, every instruction
// keeps the maximum of each cardinality class, Max_i[c] = max{T_i[Q] :
// |Q| = c}. For an experiment, the class maximum m_c = max{S_e[Q] :
// |Q| = c} is then bounded by B[c]·c with B[c] = (Σ_i s_i·Max_i[c]) / c.
// BottleneckTables visits the classes by descending bound, scans a class
// through the read-only list of its subsets (computing S_e[Q] on the
// fly), and stops at the first class whose bound cannot beat the best
// ratio found so far. On the paper's machines a pair experiment scans
// about one class of the k: the bottleneck class almost always carries
// the largest bound. A single-instruction experiment needs no scan at
// all, since s·Max[c] is the exact class maximum.
//
// Bit-exactness: experiment counts and µop counts are integers, so every
// deposit, zeta addition, table scaling, table sum and class-maximum sum
// is exact integer arithmetic in float64 (far below 2^53). Any
// association of these operations — per-experiment transform or
// per-instruction tables — yields identical bits. B[c]·c ≥ m_c holds
// exactly, and correctly rounded division is monotone, so B[c] ≥ m_c/c
// in floats: a skipped class can never raise the best ratio, and the
// result is the maximum of the same set of m_c/c values the full scan
// divides. The scan runs over all 2^k subsets, not just those within
// the experiment's used ports: a Q that reaches outside them has
// S_e[Q] = S_e[Q∩used] at a larger |Q|, a dominated duplicate, so the
// result is unchanged. The equivalence with BottleneckNaive and
// ThroughputOf is property-tested and fuzzed. Callers with non-integral
// masses must use the per-experiment entry points instead.

// MaxUnitTablePorts is the widest port universe the per-instruction
// table path accepts: tables have 2^k entries per instruction, so wider
// mappings use the per-experiment entry points (the engine falls back to
// Evaluator.ThroughputOf). The paper's machines have at most 10 ports.
const MaxUnitTablePorts = 11

// classSubsets[c] lists the subsets of ports 0..MaxUnitTablePorts-1 of
// cardinality c in ascending order, so the subsets within ports 0..k-1
// are its first binomial(k, c) entries (classSubsets[c][:classSize[k][c]]).
// Built once at package initialization and read-only afterwards.
var (
	classSubsets [MaxUnitTablePorts + 1][]uint16
	classSize    [MaxUnitTablePorts + 1][MaxUnitTablePorts + 1]int
)

func init() {
	for q := 1; q < 1<<MaxUnitTablePorts; q++ {
		c := bits.OnesCount(uint(q))
		classSubsets[c] = append(classSubsets[c], uint16(q))
		for k := bits.Len(uint(q)); k <= MaxUnitTablePorts; k++ {
			classSize[k][c]++
		}
	}
}

// TablePart is one instruction's contribution to an experiment in
// subset-sum-table form: the instruction's unit table and class maxima
// (both filled by BuildUnitTable) and the experiment's multiplicity for
// it.
type TablePart struct {
	Table []float64
	Max   []float64
	Scale float64
	// Inf marks an instruction with a µop on an empty port set: it can
	// never execute, so any experiment containing it has throughput +Inf.
	Inf bool
}

func checkTablePorts(k int) {
	if k > MaxUnitTablePorts {
		panic(fmt.Sprintf("throughput: %d ports exceed the %d-port unit table limit", k, MaxUnitTablePorts))
	}
}

// BuildUnitTable fills dst (length 1<<k) with the subset-sum table of
// the decomposition's unit masses over ports 0..k-1, and maxima (length
// k+1) with its per-cardinality maxima, maxima[c] = max{dst[Q] : |Q| =
// c}. It reports whether the decomposition contains an
// executable-nowhere µop (see TablePart.Inf). Every µop's port set must
// lie within 0..k-1, and k must not exceed MaxUnitTablePorts.
func BuildUnitTable(dst, maxima []float64, uops []portmap.UopCount, k int) (inf bool) {
	checkTablePorts(k)
	size := 1 << uint(k)
	dst = dst[:size]
	maxima = maxima[:k+1]
	clear(dst)
	clear(maxima)
	for _, uc := range uops {
		if uc.Ports.IsEmpty() {
			if uc.Count != 0 {
				inf = true
			}
			continue
		}
		dst[uc.Ports] += float64(uc.Count)
	}
	zetaTransform(dst, k)
	for q := 1; q < size; q++ {
		if c := bits.OnesCount(uint(q)); dst[q] > maxima[c] {
			maxima[c] = dst[q]
		}
	}
	return inf
}

// BottleneckTables computes the throughput of the experiment described
// by parts — each a pre-transformed unit table with its class maxima
// and a non-negative integral multiplicity — over ports 0..k-1. Tables
// must have been built with BuildUnitTable at the same k. The result is
// bit-identical to ThroughputOf on the equivalent mapping/experiment
// pair. It panics if k exceeds MaxUnitTablePorts.
func BottleneckTables(parts []TablePart, k int) float64 {
	checkTablePorts(k)
	// bound[c] = (Σ_i s_i·Max_i[c]) / c ≥ m_c / c for every class.
	var bound [MaxUnitTablePorts + 1]float64
	live := 0
	for i := range parts {
		p := &parts[i]
		if p.Scale == 0 {
			continue
		}
		if p.Inf {
			return math.Inf(1)
		}
		live++
		mx := p.Max[:k+1]
		for c := 1; c <= k; c++ {
			bound[c] += p.Scale * mx[c]
		}
	}
	for c := 1; c <= k; c++ {
		bound[c] /= float64(c)
	}
	best := 0.0
	if live <= 1 {
		// A single part's scaled class maximum is exact: the bounds are
		// the ratios themselves.
		for c := 1; c <= k; c++ {
			if bound[c] > best {
				best = bound[c]
			}
		}
		return best
	}
	// Visit classes by descending bound (a visited class's bound is
	// zeroed) until the largest remaining one cannot beat best.
	for {
		c := 0
		for j := 1; j <= k; j++ {
			if bound[j] > bound[c] {
				c = j
			}
		}
		if c == 0 || bound[c] <= best {
			return best
		}
		bound[c] = 0
		if v := classMax(parts, classSubsets[c][:classSize[k][c]]) / float64(c); v > best {
			best = v
		}
	}
}

// classMax returns max{Σ_i s_i·T_i[Q] : Q ∈ subs}.
func classMax(parts []TablePart, subs []uint16) float64 {
	m := 0.0
	for _, q := range subs {
		v := 0.0
		for i := range parts {
			if s := parts[i].Scale; s != 0 {
				v += s * parts[i].Table[q]
			}
		}
		if v > m {
			m = v
		}
	}
	return m
}
