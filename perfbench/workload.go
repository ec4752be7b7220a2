package main

import (
	"fmt"
	"math/rand"
	"time"

	"pmevo/internal/core"
	"pmevo/internal/evo"
	"pmevo/internal/exp"
	"pmevo/internal/isa"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/uarch"
)

// workload is one fixed pipeline shape. Only the seed varies between
// runs of a workload; see README.md for why each was chosen.
type workload struct {
	name          string
	proc          string
	formsPerClass int // 0: the whole ISA
	population    int
	generations   int
	islands       int
	// subSeeds is the number of sub-seeds a run infers with, and
	// extraSearches the number of further searches scored per sub-seed
	// (see scoreQuality); the quality metrics are the median over all.
	subSeeds      int
	extraSearches int
}

var workloads = []workload{
	{name: "zen-search", proc: "ZEN", formsPerClass: 2, population: 100, generations: 20, subSeeds: 2, extraSearches: 1},
	{name: "a72-full", proc: "A72", formsPerClass: 0, population: 500, generations: 60, subSeeds: 1, extraSearches: 4},
	{name: "skl-islands", proc: "SKL", formsPerClass: 2, population: 120, generations: 24, islands: 2, subSeeds: 2, extraSearches: 1},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// heldoutSize and heldoutLength shape the held-out set: §5.3's random
// multisets of five instructions.
const (
	heldoutSize   = 500
	heldoutLength = 5
)

// setupRepeats is how often a process builds its inputs; setup_s is the
// median, and the last build is the one the process uses.
const setupRepeats = 10

// subSeed is the seed of a run's k-th inference.
func subSeed(seed int64, k int) int64 { return seed*1009 + int64(k) }

// The streams one sub-seed seeds, each through derive.
const (
	evoStream = iota
	heldoutStream
	heldoutNoiseStream
	sampleStream
	extraSearchStream // the first of w.extraSearches streams
)

// derive returns the seed of one stream of a sub-seed, so that the
// search, the held-out sample and the traced samples draw from
// independent generators.
func derive(seed int64, stream int) int64 { return seed*7919 + int64(stream) }

// inputs is everything a process builds before inference: the
// simulated processor, the ISA slice under test with its form IDs in
// the processor's ISA, the measuring harness, the held-out experiments
// and the inference configuration.
type inputs struct {
	w       workload
	seed    int64
	proc    *uarch.Processor
	sub     *isa.ISA
	ids     []int
	harness *measure.Harness
	heldout []portmap.Experiment
	cfg     core.Config
}

// measurer is the harness seen through the ISA slice; a whole-ISA
// workload measures on the harness itself, as pmevo.Infer's callers do.
func (in *inputs) measurer() exp.BatchMeasurer {
	if in.sub == in.proc.ISA {
		return in.harness
	}
	return measure.SubsetMeasurer{H: in.harness, IDs: in.ids}
}

// toFull translates a slice-space experiment to the processor's form IDs.
func (in *inputs) toFull(e portmap.Experiment) portmap.Experiment {
	full := make(portmap.Experiment, len(e))
	for i, t := range e {
		full[i] = portmap.InstCount{Inst: in.ids[t.Inst], Count: t.Count}
	}
	return full
}

// setup builds the inputs setupRepeats times and returns the last build
// with the duration of every build.
func setup(w workload, seed int64) (*inputs, []float64, error) {
	var in *inputs
	times := make([]float64, setupRepeats)
	for i := range times {
		t0 := time.Now()
		var err error
		in, err = buildInputs(w, seed)
		if err != nil {
			return nil, nil, err
		}
		times[i] = time.Since(t0).Seconds()
	}
	return in, times, nil
}

func buildInputs(w workload, seed int64) (*inputs, error) {
	proc, err := uarch.ByName(w.proc)
	if err != nil {
		return nil, err
	}
	sub, ids, err := sliceISA(proc.ISA, w.formsPerClass)
	if err != nil {
		return nil, err
	}
	// The measurement noise is the harness default in every run, so the
	// measured set, its congruence classes and with them the size of the
	// search problem are fixed per workload: with noise drawn from the
	// seed, ZEN and A72 split into classes differently (A72: 13 or 15),
	// which moved search time by a third between seeds.
	h, err := measure.NewHarness(proc, measure.DefaultOptions())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(derive(seed, heldoutStream)))
	heldout := exp.RandomBenchmarkSet(rng, sub.NumForms(), heldoutSize, heldoutLength)

	cfg := core.DefaultConfig(proc.Config.NumPorts)
	cfg.PortNames = proc.PortNames
	cfg.Evo = evo.DefaultOptions(proc.Config.NumPorts)
	cfg.Evo.PopulationSize = w.population
	cfg.Evo.MaxGenerations = w.generations
	cfg.Evo.Islands = w.islands
	cfg.Evo.Seed = derive(seed, evoStream)
	return &inputs{w: w, seed: seed, proc: proc, sub: sub, ids: ids, harness: h, heldout: heldout, cfg: cfg}, nil
}

// sliceISA keeps the first perClass forms of every semantic class, in
// class order; perClass 0 keeps the ISA itself.
func sliceISA(a *isa.ISA, perClass int) (*isa.ISA, []int, error) {
	if perClass == 0 {
		ids := make([]int, a.NumForms())
		for i := range ids {
			ids[i] = i
		}
		return a, ids, nil
	}
	var picked []*isa.Form
	for _, class := range a.Classes() {
		forms := a.FormsInClass(class)
		picked = append(picked, forms[:min(perClass, len(forms))]...)
	}
	ids := make([]int, len(picked))
	for i, f := range picked {
		ids[i] = f.ID
	}
	sub, err := a.Subset(a.Name+"-slice", picked)
	if err != nil {
		return nil, nil, fmt.Errorf("slicing %s: %w", a.Name, err)
	}
	return sub, ids, nil
}
