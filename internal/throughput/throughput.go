// Package throughput computes the steady-state throughput of experiments
// under a port mapping, as defined by the linear program of the paper's
// Definitions 3 and 4.
//
// Three interchangeable engines are provided:
//
//   - LP: a direct realization of the linear program using the simplex
//     solver in internal/lp. This is the reference and the baseline the
//     paper benchmarks against (Gurobi in their setup, §5.4).
//   - BottleneckNaive: the paper's bottleneck simulation algorithm
//     (Equation 1), enumerating all subsets Q of the ports and evaluating
//     Σ{e(i) | Ports(i) ⊆ Q} / |Q| for each — Θ(2^|P|) as described in
//     §4.5.
//   - Bottleneck: the same algorithm with the per-subset mass scan
//     replaced by a subset-sum (zeta) transform, the analog of the
//     "aggressive performance optimizations" the paper applies.
//
// A fourth variant, BottleneckUnion, exploits that the optimum is always
// attained at a Q that is a union of µop port sets, enumerating subsets
// of the distinct µops instead of subsets of the ports. It is exact and
// asymptotically independent of the port count; we use it as an ablation
// of the paper's design choice.
//
// All engines agree exactly (up to floating-point association); this is
// property-tested against each other and against the LP.
package throughput

import (
	"fmt"
	"math"
	"math/bits"

	"pmevo/internal/lp"
	"pmevo/internal/portmap"
)

// maxTablePorts bounds the size of the subset-sum table (8 bytes per
// subset). 22 ports → 32 MiB, comfortably above the largest machines the
// paper considers (10 ports) and its Figure 8 sweep (20 ports).
const maxTablePorts = 22

// Bottleneck computes the throughput for the given µop masses using the
// bottleneck simulation algorithm with a subset-sum table over the ports
// that actually occur in the masses.
//
// Terms with zero mass are ignored. A term with a positive mass and an
// empty port set cannot execute anywhere; the result is +Inf.
// Bottleneck panics if more than 22 distinct ports occur; callers with
// wider machines should use LP or BottleneckUnion.
func Bottleneck(terms []portmap.MassTerm) float64 {
	var ev Evaluator
	return ev.Bottleneck(terms)
}

// Evaluator computes throughputs while reusing internal buffers. It is
// the engine of choice for hot loops such as fitness evaluation in the
// evolutionary algorithm. The zero value is ready for use. An Evaluator
// must not be used concurrently.
type Evaluator struct {
	sums  []float64
	flat  []portmap.MassTerm
	masks []maskMass
	midx  map[portmap.PortSet]int32 // reusable index for wide merges
}

type maskMass struct {
	ports portmap.PortSet
	mass  float64
}

// smallMergeCutoff bounds the term count up to which merging masses by
// port set uses a linear scan of the merged list. The §4.1 pair
// experiments flatten to a handful of terms, where the scan beats any
// map; beyond the cutoff (long experiments, many-µop mappings) the scan
// is O(d²) in the distinct port sets and a reusable index map wins.
const smallMergeCutoff = 16

// mergeTerms merges the non-zero masses of terms by port set into
// ev.masks — preserving first-occurrence order, so downstream float
// summation is independent of the merge strategy — and returns the
// union of occurring ports. ok=false signals a positive mass on an
// empty port set (the experiment cannot execute: throughput +Inf).
func (ev *Evaluator) mergeTerms(terms []portmap.MassTerm) (used portmap.PortSet, ok bool) {
	if len(terms) > smallMergeCutoff {
		return ev.mergeTermsIndexed(terms)
	}
	return ev.mergeTermsLinear(terms)
}

// mergeTermsLinear is the small-input path of mergeTerms: a linear
// scan of the merged list per term.
func (ev *Evaluator) mergeTermsLinear(terms []portmap.MassTerm) (used portmap.PortSet, ok bool) {
	ev.masks, used, ok = mergeByPorts(ev.masks[:0], terms)
	return used, ok
}

// mergeByPorts appends the non-zero masses of terms to dst, merged by
// port set in first-occurrence order, and returns the extended slice
// with the union of the occurring ports. ok=false signals a positive
// mass on an empty port set (the experiment cannot execute). Every
// engine merges through this loop (or mergeTermsIndexed, which keeps
// the same order), so all of them sum masses in the same order.
func mergeByPorts(dst []maskMass, terms []portmap.MassTerm) (merged []maskMass, used portmap.PortSet, ok bool) {
next:
	for _, t := range terms {
		if t.Mass == 0 {
			continue
		}
		if t.Ports.IsEmpty() {
			return dst, 0, false
		}
		used |= t.Ports
		for i := range dst {
			if dst[i].ports == t.Ports {
				dst[i].mass += t.Mass
				continue next
			}
		}
		dst = append(dst, maskMass{ports: t.Ports, mass: t.Mass})
	}
	return dst, used, true
}

// mergeTermsIndexed is the wide-input path of mergeTerms: an index map
// from port set to position in ev.masks replaces the linear scan.
func (ev *Evaluator) mergeTermsIndexed(terms []portmap.MassTerm) (used portmap.PortSet, ok bool) {
	ev.masks = ev.masks[:0]
	if ev.midx == nil {
		ev.midx = make(map[portmap.PortSet]int32, len(terms))
	} else {
		clear(ev.midx)
	}
	for _, t := range terms {
		if t.Mass == 0 {
			continue
		}
		if t.Ports.IsEmpty() {
			return 0, false
		}
		used |= t.Ports
		if i, found := ev.midx[t.Ports]; found {
			ev.masks[i].mass += t.Mass
		} else {
			ev.midx[t.Ports] = int32(len(ev.masks))
			ev.masks = append(ev.masks, maskMass{ports: t.Ports, mass: t.Mass})
		}
	}
	return used, true
}

// ThroughputOf flattens experiment e under mapping m (reducing the
// three-level model to the two-level model, §3.2) and computes its
// throughput with the bottleneck algorithm.
func (ev *Evaluator) ThroughputOf(m *portmap.Mapping, e portmap.Experiment) float64 {
	ev.flat = m.FlattenInto(ev.flat, e)
	return ev.Bottleneck(ev.flat)
}

// Bottleneck computes the throughput of the given µop masses; see the
// package-level Bottleneck. Internally it picks between two exact
// strategies: for experiments with few distinct µops (the common case
// for the §4.1 pair experiments) it enumerates subsets of the µops,
// whose unions cover all candidate bottleneck sets Q; otherwise it runs
// the subset-sum table over the occurring ports.
func (ev *Evaluator) Bottleneck(terms []portmap.MassTerm) float64 {
	// Merge masses by port set and collect the union of occurring ports.
	used, ok := ev.mergeTerms(terms)
	if !ok {
		return math.Inf(1)
	}
	if used.IsEmpty() {
		return 0
	}
	k := used.Count()
	d := len(ev.masks)
	if d <= 12 && d < k {
		// Union enumeration: O(2^d · d), independent of the port count.
		return unionBottleneck(ev.masks)
	}
	return ev.bottleneckTable(used, k)
}

// BottleneckTable computes the throughput with the subset-sum table
// over the occurring ports, without the union-enumeration dispatch of
// Bottleneck. This is the paper's Θ(2^|P|) algorithm (§4.5) with the
// per-subset scan replaced by a zeta transform; the Figure 8
// reproduction measures this variant so the exponential port-count
// behaviour the paper reports remains visible.
func (ev *Evaluator) BottleneckTable(terms []portmap.MassTerm) float64 {
	used, ok := ev.mergeTerms(terms)
	if !ok {
		return math.Inf(1)
	}
	if used.IsEmpty() {
		return 0
	}
	return ev.bottleneckTable(used, used.Count())
}

// zetaTransform applies the subset-sum (zeta) transform in place:
// afterwards sums[Q] = Σ{sums_before[u] | u ⊆ Q} (len(sums) must be
// 1<<k). Each pass only writes entries whose b-th bit is set and only
// reads entries with it clear, so the additions are independent and run
// over the contiguous upper half of each 2·bit block branch-free —
// bit-identical to the naive q-loop, at about half the iterations. Both
// bottleneckTable and BuildUnitTable go through this one implementation;
// the caching layer's bit-identical invariant depends on that.
func zetaTransform(sums []float64, k int) {
	size := 1 << uint(k)
	for b := 0; b < k; b++ {
		bit := 1 << uint(b)
		for base := bit; base < size; base += bit << 1 {
			dst := sums[base : base+bit]
			src := sums[base-bit : base : base]
			for i := range dst {
				dst[i] += src[i]
			}
		}
	}
}

// bottleneckTable runs the subset-sum table over the ports in `used`,
// consuming the merged masses in ev.masks.
func (ev *Evaluator) bottleneckTable(used portmap.PortSet, k int) float64 {
	if k > maxTablePorts {
		panic(fmt.Sprintf("throughput: %d distinct ports exceed the %d-port bottleneck table limit", k, maxTablePorts))
	}

	// compact[j] = original port index of dense bit j.
	var portToDense [portmap.MaxPorts]uint8
	for j, p := range used.Ports() {
		portToDense[p] = uint8(j)
	}

	size := 1 << uint(k)
	if cap(ev.sums) < size {
		ev.sums = make([]float64, size)
	}
	sums := ev.sums[:size]
	for i := range sums {
		sums[i] = 0
	}
	for _, t := range ev.masks {
		var dense uint32
		for v := uint64(t.ports); v != 0; v &= v - 1 {
			dense |= 1 << portToDense[bits.TrailingZeros64(v)]
		}
		sums[dense] += t.mass
	}

	zetaTransform(sums, k)

	// Max of sums[Q]/|Q|. Division by a positive constant is monotone, so
	// the per-|Q| maxima can be taken on the raw sums and divided once per
	// cardinality class — identical result, k divisions instead of 2^k.
	var maxSum [maxTablePorts + 1]float64
	for q := 1; q < size; q++ {
		if c := bits.OnesCount(uint(q)); sums[q] > maxSum[c] {
			maxSum[c] = sums[q]
		}
	}
	best := 0.0
	for c := 1; c <= k; c++ {
		if v := maxSum[c] / float64(c); v > best {
			best = v
		}
	}
	return best
}

// unionBottleneck evaluates Equation 1 over merged µop masses by
// enumerating the non-empty subsets of the masses: the optimum is always
// attained at a Q that is a union of µop port sets (shrinking Q to the
// union of the port sets it covers keeps the mass and cannot grow |Q|).
// No masses give 0.
func unionBottleneck(masks []maskMass) float64 {
	best := 0.0
	for s := 1; s < 1<<uint(len(masks)); s++ {
		var q portmap.PortSet
		for v := uint(s); v != 0; v &= v - 1 {
			q |= masks[bits.TrailingZeros(v)].ports
		}
		mass := 0.0
		for i := range masks {
			if masks[i].ports.SubsetOf(q) {
				mass += masks[i].mass
			}
		}
		if v := mass / float64(q.Count()); v > best {
			best = v
		}
	}
	return best
}

// BottleneckNaive is the unoptimized form of the bottleneck simulation
// algorithm exactly as presented in §4.5: for every subset Q of the used
// ports, scan all µop masses and accumulate those whose port set is
// contained in Q. It is exponentially slower than Bottleneck for many
// distinct masses and exists as the reference implementation and as an
// ablation baseline.
func BottleneckNaive(terms []portmap.MassTerm) float64 {
	var used portmap.PortSet
	for _, t := range terms {
		if t.Mass == 0 {
			continue
		}
		if t.Ports.IsEmpty() {
			return math.Inf(1)
		}
		used |= t.Ports
	}
	if used.IsEmpty() {
		return 0
	}
	k := used.Count()
	if k > maxTablePorts {
		panic(fmt.Sprintf("throughput: %d distinct ports exceed the %d-port limit", k, maxTablePorts))
	}
	ports := used.Ports()

	best := 0.0
	for q := 1; q < 1<<uint(k); q++ {
		var subset portmap.PortSet
		for j, p := range ports {
			if q&(1<<uint(j)) != 0 {
				subset = subset.With(p)
			}
		}
		mass := 0.0
		for _, t := range terms {
			if t.Ports.SubsetOf(subset) {
				mass += t.Mass
			}
		}
		if v := mass / float64(subset.Count()); v > best {
			best = v
		}
	}
	return best
}

// BottleneckUnion computes the throughput by enumerating subsets of the
// distinct µop port sets instead of subsets of the ports. The optimum of
// Equation 1 is always attained at a Q that is a union of µop port sets:
// shrinking any Q to the union of the port sets it covers keeps the
// covered mass while not increasing |Q|. The cost is Θ(2^d) in the number
// d of distinct µops, independent of the port count.
func BottleneckUnion(terms []portmap.MassTerm) float64 {
	masks, _, ok := mergeByPorts(make([]maskMass, 0, len(terms)), terms)
	if !ok {
		return math.Inf(1)
	}
	if len(masks) > 24 {
		panic(fmt.Sprintf("throughput: %d distinct µops exceed the union-enumeration limit", len(masks)))
	}
	return unionBottleneck(masks)
}

// LP computes the throughput by building and solving the linear program
// of Definition 3 over the given µop masses: minimize t subject to mass
// conservation per µop and load ≤ t per port. Model construction is part
// of this function (and of its cost), mirroring the paper's measurement
// methodology for the Gurobi baseline.
func LP(terms []portmap.MassTerm, numPorts int) (float64, error) {
	// Merge terms by port set so each µop yields one mass constraint.
	uops, _, ok := mergeByPorts(nil, terms)
	if !ok {
		return math.Inf(1), nil
	}
	if len(uops) == 0 {
		return 0, nil
	}

	p := lp.NewProblem(lp.Minimize)
	tVar := p.AddVariable(1)

	// xByPort[k] collects the x_{u,k} variables of all µops that may use
	// port k, for the port-capacity constraints.
	xByPort := make([][]lp.Var, numPorts)
	for _, u := range uops {
		var massTerms []lp.Term
		for _, k := range u.ports.Ports() {
			if k >= numPorts {
				return 0, fmt.Errorf("throughput: port %d out of range (%d ports)", k, numPorts)
			}
			x := p.AddVariable(0)
			massTerms = append(massTerms, lp.Term{Var: x, Coeff: 1})
			xByPort[k] = append(xByPort[k], x)
		}
		if err := p.AddConstraint(massTerms, lp.EQ, u.mass); err != nil {
			return 0, err
		}
	}
	for k := 0; k < numPorts; k++ {
		if len(xByPort[k]) == 0 {
			continue
		}
		terms := make([]lp.Term, 0, len(xByPort[k])+1)
		for _, x := range xByPort[k] {
			terms = append(terms, lp.Term{Var: x, Coeff: 1})
		}
		terms = append(terms, lp.Term{Var: tVar, Coeff: -1})
		if err := p.AddConstraint(terms, lp.LE, 0); err != nil {
			return 0, err
		}
	}

	sol := p.Solve()
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("throughput: LP status %v", sol.Status)
	}
	return sol.Objective, nil
}

// OfExperiment computes the throughput t*_m(e) of experiment e under the
// three-level mapping m using the bottleneck algorithm.
func OfExperiment(m *portmap.Mapping, e portmap.Experiment) float64 {
	return Bottleneck(m.Flatten(e))
}

// OfExperimentLP computes the throughput t*_m(e) via the linear program.
func OfExperimentLP(m *portmap.Mapping, e portmap.Experiment) (float64, error) {
	return LP(m.Flatten(e), m.NumPorts)
}
