package engine

import (
	"testing"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// TestExpSetFingerprintSensitivity: the content key must change when any
// component of the set changes — instruction count, terms, or the exact
// bits of a measured throughput.
func TestExpSetFingerprintSensitivity(t *testing.T) {
	base := &exp.Set{
		NumInsts:   2,
		Individual: []float64{1, 2},
		Measurements: []exp.Measurement{
			{Exp: portmap.Experiment{{Inst: 0, Count: 1}}, Throughput: 1},
			{Exp: portmap.Experiment{{Inst: 1, Count: 2}}, Throughput: 2},
		},
	}
	fp := ExpSetFingerprint(base)
	// Checkpoint content keys hash this value: a change to the hash
	// would make every existing checkpoint cold-start.
	if fp != 0x1cf2d7816bfef935 {
		t.Fatalf("ExpSetFingerprint(base) = %#x, want the pinned 0x1cf2d7816bfef935", fp)
	}
	mutations := []func(*exp.Set){
		func(s *exp.Set) { s.NumInsts = 3 },
		func(s *exp.Set) { s.Individual[1] = 2.5 },
		func(s *exp.Set) { s.Measurements[0].Throughput = 1.0000000001 },
		func(s *exp.Set) { s.Measurements[1].Exp[0].Count = 3 },
		func(s *exp.Set) { s.Measurements[1].Exp[0].Inst = 0 },
		func(s *exp.Set) { s.Measurements = s.Measurements[:1] },
	}
	for i, mutate := range mutations {
		clone := &exp.Set{
			NumInsts:   base.NumInsts,
			Individual: append([]float64(nil), base.Individual...),
		}
		for _, m := range base.Measurements {
			clone.Measurements = append(clone.Measurements, exp.Measurement{
				Exp:        append(portmap.Experiment(nil), m.Exp...),
				Throughput: m.Throughput,
			})
		}
		mutate(clone)
		if ExpSetFingerprint(clone) == fp {
			t.Errorf("mutation %d did not change the set fingerprint", i)
		}
	}
}
