package throughput

import (
	"fmt"
	"math"

	"pmevo/internal/lp"
	"pmevo/internal/portmap"
)

// DualLP computes the throughput via the dual linear program from the
// paper's Appendix A:
//
//	maximize   Σ_u e(u)·y_u
//	subject to y_u − z_k ≤ 0    for all (u,k) ∈ M
//	           Σ_k z_k = 1
//	           z_k ≥ 0, y_u ≥ 0
//
// (In the paper's formulation the constraint is y_i − z_k ≤ m_ik with
// m_ik = 1 ⇔ (i,k) ∉ M; pairs outside M are never binding at the
// optimum, so only the (u,k) ∈ M rows are materialized here.)
//
// By the strong duality theorem the optimum equals the primal optimum,
// i.e. the throughput t*(e). Computing the throughput both ways and
// checking equality is a machine-checked version of the Appendix A
// correctness argument for the bottleneck simulation algorithm; the
// property tests in this package do exactly that.
func DualLP(terms []portmap.MassTerm, numPorts int) (float64, error) {
	uops, _, ok := mergeByPorts(nil, terms)
	if !ok {
		return math.Inf(1), nil
	}
	if len(uops) == 0 {
		return 0, nil
	}

	p := lp.NewProblem(lp.Maximize)
	zs := make([]lp.Var, numPorts)
	zUsed := make([]bool, numPorts)
	ys := make([]lp.Var, len(uops))
	for i, u := range uops {
		ys[i] = p.AddVariable(u.mass)
		for _, k := range u.ports.Ports() {
			if k >= numPorts {
				return 0, fmt.Errorf("throughput: port %d out of range (%d ports)", k, numPorts)
			}
			if !zUsed[k] {
				zs[k] = p.AddVariable(0)
				zUsed[k] = true
			}
		}
	}
	for i, u := range uops {
		for _, k := range u.ports.Ports() {
			if err := p.AddConstraint([]lp.Term{{Var: ys[i], Coeff: 1}, {Var: zs[k], Coeff: -1}}, lp.LE, 0); err != nil {
				return 0, err
			}
		}
	}
	var sumZ []lp.Term
	for k := 0; k < numPorts; k++ {
		if zUsed[k] {
			sumZ = append(sumZ, lp.Term{Var: zs[k], Coeff: 1})
		}
	}
	if err := p.AddConstraint(sumZ, lp.EQ, 1); err != nil {
		return 0, err
	}

	sol := p.Solve()
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("throughput: dual LP status %v", sol.Status)
	}
	// The dual objective is Σ m_u y_u scaled by the implicit 1/Σz = 1;
	// with Σ z_k = 1 the objective is directly the throughput... up to
	// one subtlety: the bottleneck characterization divides by |Q|. The
	// witness z_k = 1/|Q*| for k ∈ Q*, y_u = 1/|Q*| for Ports(u) ⊆ Q*
	// attains exactly max_Q Σ{e(u) | Ports(u) ⊆ Q}/|Q| (Appendix A,
	// part II).
	return sol.Objective, nil
}

// BottleneckWitness returns the optimal bottleneck port set Q* of
// Equation 1 along with the throughput: the set of ports whose combined
// mass-to-width ratio attains the maximum. When several subsets attain
// the optimum, the smallest (by popcount, then by bitmask value) is
// returned. An empty set is returned for empty experiments.
func BottleneckWitness(terms []portmap.MassTerm) (portmap.PortSet, float64) {
	masks, _, ok := mergeByPorts(nil, terms)
	if !ok {
		return 0, math.Inf(1)
	}
	if len(masks) == 0 {
		return 0, 0
	}
	if len(masks) > 24 {
		panic("throughput: too many distinct µops for witness enumeration")
	}
	bestQ := portmap.PortSet(0)
	best := -1.0
	for s := 1; s < 1<<uint(len(masks)); s++ {
		var q portmap.PortSet
		for j := 0; j < len(masks); j++ {
			if s&(1<<uint(j)) != 0 {
				q |= masks[j].ports
			}
		}
		mass := 0.0
		for i := range masks {
			if masks[i].ports.SubsetOf(q) {
				mass += masks[i].mass
			}
		}
		v := mass / float64(q.Count())
		const eps = 1e-12
		switch {
		case v > best+eps:
			best, bestQ = v, q
		case v > best-eps && (q.Count() < bestQ.Count() ||
			(q.Count() == bestQ.Count() && q < bestQ)):
			bestQ = q
		}
	}
	return bestQ, best
}
