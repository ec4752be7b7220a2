package throughput

import (
	"fmt"
	"math"
	"strings"

	"pmevo/internal/lp"
	"pmevo/internal/portmap"
)

// Analysis describes an optimal port allocation for an experiment: the
// throughput, the per-port load (mass executed on each port per
// iteration), and the set of bottleneck ports (the Q* of §4.5) whose load
// equals the throughput.
type Analysis struct {
	Throughput float64
	PortLoad   []float64
	Bottleneck portmap.PortSet
}

// Analyze computes an optimal port allocation for experiment e under
// mapping m by solving the throughput LP and reading off the x_{u,k}
// variables. This is the port-pressure view that tools like llvm-mca
// present to users.
func Analyze(m *portmap.Mapping, e portmap.Experiment) (*Analysis, error) {
	terms := m.Flatten(e)
	numPorts := m.NumPorts

	uops, _, ok := mergeByPorts(nil, terms)
	if !ok {
		return nil, fmt.Errorf("throughput: experiment contains a µop with no ports")
	}
	if len(uops) == 0 {
		return &Analysis{PortLoad: make([]float64, numPorts)}, nil
	}

	p := lp.NewProblem(lp.Minimize)
	tVar := p.AddVariable(1)
	type xref struct {
		v    lp.Var
		port int
	}
	var xs []xref
	xByPort := make([][]lp.Var, numPorts)
	for _, u := range uops {
		var massTerms []lp.Term
		for _, k := range u.ports.Ports() {
			if k >= numPorts {
				return nil, fmt.Errorf("throughput: port %d out of range (%d ports)", k, numPorts)
			}
			x := p.AddVariable(0)
			xs = append(xs, xref{x, k})
			massTerms = append(massTerms, lp.Term{Var: x, Coeff: 1})
			xByPort[k] = append(xByPort[k], x)
		}
		if err := p.AddConstraint(massTerms, lp.EQ, u.mass); err != nil {
			return nil, err
		}
	}
	for k := 0; k < numPorts; k++ {
		if len(xByPort[k]) == 0 {
			continue
		}
		cterms := make([]lp.Term, 0, len(xByPort[k])+1)
		for _, x := range xByPort[k] {
			cterms = append(cterms, lp.Term{Var: x, Coeff: 1})
		}
		cterms = append(cterms, lp.Term{Var: tVar, Coeff: -1})
		if err := p.AddConstraint(cterms, lp.LE, 0); err != nil {
			return nil, err
		}
	}

	sol := p.Solve()
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("throughput: LP status %v", sol.Status)
	}

	a := &Analysis{
		Throughput: sol.Objective,
		PortLoad:   make([]float64, numPorts),
	}
	for _, x := range xs {
		v, err := sol.Value(x.v)
		if err != nil {
			return nil, err
		}
		a.PortLoad[x.port] += v
	}
	const eps = 1e-6
	for k, load := range a.PortLoad {
		if math.Abs(load-a.Throughput) < eps && a.Throughput > 0 {
			a.Bottleneck = a.Bottleneck.With(k)
		}
	}
	return a, nil
}

// Render draws the analysis as a small text report with one bar per port,
// in the style of the paper's Figure 3.
func (a *Analysis) Render(portNames []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "throughput: %.3f cycles/iteration\n", a.Throughput)
	maxLoad := a.Throughput
	if maxLoad <= 0 {
		maxLoad = 1
	}
	const width = 40
	for k, load := range a.PortLoad {
		name := fmt.Sprintf("P%d", k)
		if portNames != nil && k < len(portNames) {
			name = portNames[k]
		}
		bar := int(load/maxLoad*width + 0.5)
		if bar > width {
			bar = width
		}
		marker := " "
		if a.Bottleneck.Has(k) {
			marker = "*"
		}
		fmt.Fprintf(&b, "%-6s %s%-*s %6.3f%s\n", name, "|", width, strings.Repeat("#", bar), load, marker)
	}
	if !a.Bottleneck.IsEmpty() {
		names := make([]string, 0, a.Bottleneck.Count())
		for _, k := range a.Bottleneck.Ports() {
			if portNames != nil && k < len(portNames) {
				names = append(names, portNames[k])
			} else {
				names = append(names, fmt.Sprintf("P%d", k))
			}
		}
		fmt.Fprintf(&b, "bottleneck ports: %s\n", strings.Join(names, ","))
	}
	return b.String()
}
