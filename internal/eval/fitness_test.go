package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunFitnessBenchQuick smoke-tests the fitness bench end to end:
// the run scores local-search probes incrementally, skipping
// experiments, and both report shapes are complete.
func TestRunFitnessBenchQuick(t *testing.T) {
	scale := QuickScale()
	scale.Population = 30
	scale.MaxGenerations = 5
	scale.Seed = 3
	res, err := RunFitnessBench(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaEvals == 0 || res.DeltaExpsSkipped == 0 {
		t.Errorf("local-search probes not scored incrementally: %+v", res)
	}
	if !strings.Contains(res.Render(), "evals/s") {
		t.Errorf("render missing the throughput line:\n%s", res.Render())
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 2 {
		t.Errorf("CSV line count wrong:\n%s", buf.String())
	}
}
