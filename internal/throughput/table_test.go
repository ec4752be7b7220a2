package throughput

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"pmevo/internal/portmap"
)

// tableCase is one experiment over ports 0..k-1 in the form both the
// table path and the per-experiment oracles consume: one decomposition
// per part, with the part's multiplicity.
type tableCase struct {
	k      int
	decomp [][]portmap.UopCount
	scale  []int
}

// tables builds the unit tables of c's parts and returns them as
// TableParts with their scales.
func (c *tableCase) tables() []TablePart {
	parts := make([]TablePart, len(c.decomp))
	for i, d := range c.decomp {
		t := make([]float64, 1<<uint(c.k))
		mx := make([]float64, c.k+1)
		inf := BuildUnitTable(t, mx, d, c.k)
		parts[i] = TablePart{Table: t, Max: mx, Scale: float64(c.scale[i]), Inf: inf}
	}
	return parts
}

// terms flattens c into µop masses, the input of the per-experiment
// engines.
func (c *tableCase) terms() []portmap.MassTerm {
	var terms []portmap.MassTerm
	for i, d := range c.decomp {
		for _, uc := range d {
			terms = append(terms, portmap.MassTerm{Ports: uc.Ports, Mass: float64(c.scale[i] * uc.Count)})
		}
	}
	return terms
}

// mapping returns c as a mapping with one instruction per part and the
// experiment running each instruction at its part's scale.
func (c *tableCase) mapping() (*portmap.Mapping, portmap.Experiment) {
	m := portmap.NewMapping(len(c.decomp), c.k)
	var e portmap.Experiment
	for i, d := range c.decomp {
		m.Decomp[i] = append([]portmap.UopCount(nil), d...)
		e = append(e, portmap.InstCount{Inst: i, Count: c.scale[i]})
	}
	m.InvalidateFingerprints()
	return m, e
}

// checkTableCase compares BottleneckTables on c bitwise against
// BottleneckNaive and ThroughputOf, and each part's class maxima
// against a brute-force scan of its table.
func checkTableCase(t *testing.T, name string, c *tableCase) {
	t.Helper()
	parts := c.tables()
	for i, p := range parts {
		for card := 0; card <= c.k; card++ {
			want := 0.0
			for q := range p.Table {
				if bits.OnesCount(uint(q)) == card && p.Table[q] > want {
					want = p.Table[q]
				}
			}
			if math.Float64bits(p.Max[card]) != math.Float64bits(want) {
				t.Fatalf("%s: part %d Max[%d] = %g, brute force %g", name, i, card, p.Max[card], want)
			}
		}
	}
	got := BottleneckTables(parts, c.k)
	naive := BottleneckNaive(c.terms())
	var ev Evaluator
	m, e := c.mapping()
	direct := ev.ThroughputOf(m, e)
	if math.Float64bits(got) != math.Float64bits(naive) || math.Float64bits(got) != math.Float64bits(direct) {
		t.Fatalf("%s: BottleneckTables %v, BottleneckNaive %v, ThroughputOf %v\ncase: %+v", name, got, naive, direct, *c)
	}
}

// randomDecomp draws 1..maxUops distinct µops on random non-empty
// subsets of within, each with count 1..4.
func randomDecomp(rng *rand.Rand, within portmap.PortSet, maxUops int) []portmap.UopCount {
	ports := within.Ports()
	n := 1 + rng.Intn(maxUops)
	var d []portmap.UopCount
	for len(d) < n {
		var u portmap.PortSet
		for u.IsEmpty() {
			for _, p := range ports {
				if rng.Intn(2) == 0 {
					u = u.With(p)
				}
			}
		}
		d = append(d, portmap.UopCount{Ports: u, Count: 1 + rng.Intn(4)})
	}
	return d
}

// TestBottleneckTablesMatchesOracles is the table path's property test:
// random experiments with 1, 2, 3 and 5 parts at every table width, on
// the full port range and on narrow unions, with zero scales and
// executable-nowhere µops mixed in.
func TestBottleneckTablesMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for k := 1; k <= MaxUnitTablePorts; k++ {
		for _, nparts := range []int{1, 2, 3, 5} {
			for trial := 0; trial < 60; trial++ {
				within := portmap.FullPortSet(k)
				if trial%3 == 1 && k > 2 {
					// A narrow union: 2 of the k ports.
					a := rng.Intn(k)
					b := (a + 1 + rng.Intn(k-1)) % k
					within = portmap.MakePortSet(a, b)
				}
				c := &tableCase{k: k}
				for i := 0; i < nparts; i++ {
					d := randomDecomp(rng, within, 4)
					if trial%7 == 3 && i == nparts-1 {
						d = append(d, portmap.UopCount{Ports: 0, Count: 1})
					}
					scale := 1 + rng.Intn(3)
					if trial%5 == 2 && i == 0 {
						scale = 0
					}
					c.decomp = append(c.decomp, d)
					c.scale = append(c.scale, scale)
				}
				checkTableCase(t, fmt.Sprintf("k=%d parts=%d trial=%d", k, nparts, trial), c)
			}
		}
	}
}

// TestBottleneckTablesEdgeCases pins the hand-picked corners of the
// pruning: ties between classes, zero scales everywhere, executable-
// nowhere µops with and without a zero scale, and empty decompositions.
func TestBottleneckTablesEdgeCases(t *testing.T) {
	p := portmap.MakePortSet
	cases := map[string]*tableCase{
		// {0,1}: 2/2 = 1 and {2}: 1/1 = 1 tie across classes 1 and 2;
		// the whole set gives 3/3 = 1 in class 3 too.
		"equal maxima across classes": {k: 4, decomp: [][]portmap.UopCount{
			{{Ports: p(0, 1), Count: 2}}, {{Ports: p(2), Count: 1}},
		}, scale: []int{1, 1}},
		// The largest class bound belongs to a class whose true maximum
		// is small: each part peaks in class 1 on a different port.
		"loose bound": {k: 6, decomp: [][]portmap.UopCount{
			{{Ports: p(0), Count: 3}, {Ports: p(1, 2, 3, 4, 5), Count: 5}},
			{{Ports: p(5), Count: 3}, {Ports: p(0, 1, 2, 3, 4), Count: 5}},
		}, scale: []int{1, 1}},
		"all scales zero": {k: 3, decomp: [][]portmap.UopCount{
			{{Ports: p(0), Count: 1}}, {{Ports: p(1), Count: 1}},
		}, scale: []int{0, 0}},
		"executable nowhere": {k: 3, decomp: [][]portmap.UopCount{
			{{Ports: p(0), Count: 1}}, {{Ports: 0, Count: 2}},
		}, scale: []int{1, 1}},
		"executable nowhere at zero scale": {k: 3, decomp: [][]portmap.UopCount{
			{{Ports: p(0), Count: 1}}, {{Ports: 0, Count: 2}},
		}, scale: []int{1, 0}},
		"empty decompositions": {k: 5, decomp: [][]portmap.UopCount{nil, nil, nil}, scale: []int{1, 2, 3}},
		"one port of eleven": {k: 11, decomp: [][]portmap.UopCount{
			{{Ports: p(10), Count: 4}}, {{Ports: p(10), Count: 1}}, {{Ports: p(10), Count: 2}},
		}, scale: []int{1, 2, 1}},
	}
	for name, c := range cases {
		checkTableCase(t, name, c)
	}
	if got := BottleneckTables(nil, 4); got != 0 {
		t.Errorf("no parts: got %g, want 0", got)
	}
}

func TestUnitTablesPanicAboveLimit(t *testing.T) {
	k := MaxUnitTablePorts + 1
	want := fmt.Sprintf("throughput: %d ports exceed the %d-port unit table limit", k, MaxUnitTablePorts)
	for name, f := range map[string]func(){
		"BuildUnitTable": func() {
			BuildUnitTable(make([]float64, 1<<uint(k)), make([]float64, k+1), nil, k)
		},
		"BottleneckTables": func() { BottleneckTables(nil, k) },
	} {
		func() {
			defer func() {
				if r := recover(); r != want {
					t.Errorf("%s at %d ports: recovered %v, want panic %q", name, k, r, want)
				}
			}()
			f()
		}()
	}
}

// decodeTableCase turns arbitrary bytes into a table case: k in 1..11,
// 1..5 parts with scales 0..7, and per part 0..7 µops with counts 0..7
// on port sets masked to ports 0..k-1 (possibly empty). It returns nil
// when data runs out before the header is complete.
func decodeTableCase(data []byte) *tableCase {
	if len(data) < 2 {
		return nil
	}
	c := &tableCase{k: 1 + int(data[0])%MaxUnitTablePorts}
	nparts := 1 + int(data[1])%5
	data = data[2:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	full := portmap.FullPortSet(c.k)
	for i := 0; i < nparts; i++ {
		h := next()
		var d []portmap.UopCount
		for j := 0; j < h&7; j++ {
			ports := portmap.PortSet(next()|next()<<8) & full
			d = append(d, portmap.UopCount{Ports: ports, Count: next() & 7})
		}
		c.decomp = append(c.decomp, d)
		c.scale = append(c.scale, h>>3&7)
	}
	return c
}

// FuzzBottleneckTables differentially tests the table path against the
// naive §4.5 algorithm on decoded experiments; see decodeTableCase.
// The seed corpus lives in testdata/fuzz/FuzzBottleneckTables.
func FuzzBottleneckTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeTableCase(data)
		if c == nil {
			return
		}
		got := BottleneckTables(c.tables(), c.k)
		want := BottleneckNaive(c.terms())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("BottleneckTables %v, BottleneckNaive %v\ncase: %+v", got, want, *c)
		}
	})
}

// BenchmarkBottleneckTables measures one experiment prediction on the
// table path, over unit tables of a random mapping drawn the way the
// search initializes its population (1..k µops per instruction). The
// pair experiments use the §4.1 shape {a:1, b:1}; the length-5 ones
// are uniform multisets of five instructions.
func BenchmarkBottleneckTables(b *testing.B) {
	const numInsts, numExps = 64, 256
	for _, k := range []int{7, 9, 10} {
		rng := rand.New(rand.NewSource(int64(k)))
		m := portmap.Random(rng, portmap.RandomOptions{NumInsts: numInsts, NumPorts: k})
		tables := make([]TablePart, numInsts)
		for i := range tables {
			t := make([]float64, 1<<uint(k))
			mx := make([]float64, k+1)
			inf := BuildUnitTable(t, mx, m.Decomp[i], k)
			tables[i] = TablePart{Table: t, Max: mx, Inf: inf}
		}
		for _, kind := range []string{"single", "pair", "len5"} {
			exps := make([][]TablePart, numExps)
			for j := range exps {
				var e portmap.Experiment
				switch kind {
				case "single":
					e = portmap.Experiment{{Inst: rng.Intn(numInsts), Count: 1}}
				case "pair":
					a := rng.Intn(numInsts)
					e = portmap.Experiment{{Inst: a, Count: 1}, {Inst: (a + 1 + rng.Intn(numInsts-1)) % numInsts, Count: 1}}
				case "len5":
					e = portmap.RandomExperiment(rng, numInsts, 5)
				}
				for _, ic := range e {
					p := tables[ic.Inst]
					p.Scale = float64(ic.Count)
					exps[j] = append(exps[j], p)
				}
			}
			b.Run(fmt.Sprintf("k=%d/%s", k, kind), func(b *testing.B) {
				sink := 0.0
				for i := 0; i < b.N; i++ {
					sink += BottleneckTables(exps[i%numExps], k)
				}
				if math.IsNaN(sink) {
					b.Fatal("NaN throughput")
				}
			})
		}
	}
}
