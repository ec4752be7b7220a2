package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunFitnessBenchQuick smoke-tests the fitness bench end to end: the
// driver itself enforces cached-vs-uncached bit-equality of the best
// error, so this checks that only the cached run scores local-search
// probes incrementally and that both report shapes are complete.
func TestRunFitnessBenchQuick(t *testing.T) {
	scale := QuickScale()
	scale.Population = 30
	scale.MaxGenerations = 5
	scale.Seed = 3
	res, err := RunFitnessBench(context.Background(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached.DeltaEvals == 0 {
		t.Error("cached run scored no local-search probe incrementally")
	}
	if res.Uncached.DeltaEvals != 0 || res.Uncached.DeltaExpsSkipped != 0 {
		t.Errorf("DisableCache run used delta evaluation: %+v", res.Uncached)
	}
	if !strings.Contains(res.Render(), "speedup") {
		t.Errorf("render missing speedup line:\n%s", res.Render())
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "\n") != 3 {
		t.Errorf("CSV line count wrong:\n%s", buf.String())
	}
}
