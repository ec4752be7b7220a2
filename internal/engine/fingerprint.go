package engine

import (
	"math"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// ExpSetFingerprint returns a 64-bit content hash of a measured
// experiment set: the instruction count, every experiment's terms in
// order, and the exact bits of every measured throughput. Evolution
// checkpoints hash it into their content key, so a checkpoint taken
// against one set never resumes against another; its output must stay
// stable across versions or existing checkpoints stop resuming.
func ExpSetFingerprint(set *exp.Set) uint64 {
	h := portmap.CombineFingerprints(0x706d65766f736574, uint64(set.NumInsts)) // "pmevoset"
	for _, v := range set.Individual {
		h = portmap.CombineFingerprints(h, math.Float64bits(v))
	}
	for _, m := range set.Measurements {
		h = portmap.CombineFingerprints(h, uint64(len(m.Exp)))
		for _, t := range m.Exp {
			h = portmap.CombineFingerprints(h, uint64(t.Inst))
			h = portmap.CombineFingerprints(h, uint64(t.Count))
		}
		h = portmap.CombineFingerprints(h, math.Float64bits(m.Throughput))
	}
	if h == 0 {
		h = 1
	}
	return h
}
