package main

import (
	"context"
	"encoding/json"
	"os"
	"time"

	"pmevo/internal/exp"
	"pmevo/internal/portmap"
)

// span is one timed call into a layer. Spans of one traced pipeline
// share Trace; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"` // -1 while open
}

// recorder keeps spans in memory until the traced process writes them
// out. It is used from one goroutine: the pipeline's coordinator.
type recorder struct {
	trace string
	t0    time.Time
	spans []span
}

func newRecorder(trace string) *recorder {
	return &recorder{trace: trace, t0: time.Now()}
}

func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// start opens a span and returns its ID.
func (r *recorder) start(name string, parent int) int {
	return r.add(name, parent, r.now(), -1)
}

// add records a span whose bounds are already known.
func (r *recorder) add(name string, parent int, startNS, endNS int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name, StartNS: startNS, EndNS: endNS})
	return id
}

// end closes the span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.EndNS = r.now()
	return float64(s.EndNS-s.StartNS) / 1e9
}

// unclosed counts spans that were opened and never closed.
func (r *recorder) unclosed() int {
	n := 0
	for _, s := range r.spans {
		if s.EndNS < s.StartNS {
			n++
		}
	}
	return n
}

// write stores the spans and the layer metrics as one JSON document.
func (r *recorder) write(path string, layer map[string]float64) error {
	data, err := json.MarshalIndent(struct {
		Trace   string             `json:"trace"`
		Spans   []span             `json:"spans"`
		Metrics map[string]float64 `json:"metrics"`
	}{r.trace, r.spans, layer}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedMeasurer wraps a batch measurer with a span per call. It is
// itself an exp.BatchMeasurer, so exp.GenerateAndMeasure keeps taking
// the harness's parallel MeasureAll path.
type timedMeasurer struct {
	inner  exp.BatchMeasurer
	rec    *recorder
	parent int // span the calls nest under

	batchS      float64
	experiments int
}

func (t *timedMeasurer) Measure(e portmap.Experiment) (float64, error) {
	id := t.rec.start("measure.Measure", t.parent)
	tp, err := t.inner.Measure(e)
	t.batchS += t.rec.end(id)
	t.experiments++
	return tp, err
}

func (t *timedMeasurer) MeasureAll(ctx context.Context, es []portmap.Experiment) ([]float64, error) {
	id := t.rec.start("measure.MeasureAll", t.parent)
	tps, err := t.inner.MeasureAll(ctx, es)
	t.batchS += t.rec.end(id)
	t.experiments += len(es)
	return tps, err
}
