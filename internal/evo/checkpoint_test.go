package evo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmevo/internal/cachestore"
	"pmevo/internal/cachetable"
	"pmevo/internal/engine"
	"pmevo/internal/faultfs"
)

// ckptOpts is a small but non-trivial configuration for the
// checkpoint/resume golden tests: big enough that the trajectory is
// interesting, small enough to run three full searches per test.
func ckptOpts() Options {
	return Options{
		PopulationSize:  60,
		MaxGenerations:  14,
		NumPorts:        3,
		LocalSearch:     true,
		VolumeObjective: true,
		Seed:            11,
		Workers:         2,
	}
}

func mustRun(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTrajectory asserts the bit-identity contract of Options.Resume:
// Best/BestError/BestVolume/History/Generations must match exactly
// (FitnessEvaluations and CacheStats are run-local diagnostics and
// deliberately excluded).
func sameTrajectory(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Best.String() != want.Best.String() {
		t.Errorf("%s: Best differs\ngot:\n%s\nwant:\n%s", label, got.Best, want.Best)
	}
	if math.Float64bits(got.BestError) != math.Float64bits(want.BestError) {
		t.Errorf("%s: BestError %v != %v", label, got.BestError, want.BestError)
	}
	if got.BestVolume != want.BestVolume {
		t.Errorf("%s: BestVolume %d != %d", label, got.BestVolume, want.BestVolume)
	}
	if got.Generations != want.Generations {
		t.Errorf("%s: Generations %d != %d", label, got.Generations, want.Generations)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: History length %d != %d", label, len(got.History), len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Errorf("%s: History[%d] = %+v != %+v", label, i, got.History[i], want.History[i])
		}
	}
}

// historyPrefix asserts that a partial result's history is exactly the
// first generations of the uninterrupted run — interruption must never
// perturb the work already done.
func historyPrefix(t *testing.T, label string, partial, full *Result) {
	t.Helper()
	if len(partial.History) != partial.Generations {
		t.Fatalf("%s: partial has %d history entries for %d generations",
			label, len(partial.History), partial.Generations)
	}
	if len(partial.History) > len(full.History) {
		t.Fatalf("%s: partial history longer than full (%d > %d)",
			label, len(partial.History), len(full.History))
	}
	for i := range partial.History {
		if partial.History[i] != full.History[i] {
			t.Errorf("%s: History[%d] = %+v != full %+v", label, i, partial.History[i], full.History[i])
		}
	}
}

// cancelAt returns an OnGeneration hook canceling the run once gensDone
// reaches g, plus the context to run under.
func cancelAt(g int) (context.Context, func(int)) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, func(gensDone int) {
		if gensDone >= g {
			cancel()
		}
	}
}

// TestResumeAfterInterruptBitIdenticalSingle is the tentpole golden
// test: a single-population run interrupted mid-search and resumed from
// its checkpoint must finish bit-identical to the uninterrupted run.
// The stale-spills input plants, before resuming, the two cache spill
// files older versions wrote next to the checkpoint: fitness-memo.pmc
// as junk bytes and fitness-cache.pmc as a well-formed file in the old
// format whose one entry claims a zero error for the uninterrupted
// run's best mapping. Resume must ignore both.
func TestResumeAfterInterruptBitIdenticalSingle(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)
	fullJSON := mappingJSON(t, full.Best)

	cases := []struct {
		name  string
		plant func(t *testing.T, dir string)
	}{
		{name: "clean"},
		{name: "stale-spills", plant: func(t *testing.T, dir string) {
			junk := []byte("not a cache file \x00\xff\x13\x37")
			if err := os.WriteFile(filepath.Join(dir, "fitness-memo.pmc"), junk, 0o644); err != nil {
				t.Fatal(err)
			}
			// Tag 5 is the retired cross-generation fitness-cache
			// schema; the content key is the one its writer used.
			const retiredFitCacheTag uint32 = 5
			entries := []cachetable.Entry{{Key: full.Best.FingerprintAll(), Val: math.Float64bits(0)}}
			set := measuredSet(t, hiddenMapping())
			if err := cachestore.Save(filepath.Join(dir, "fitness-cache.pmc"), retiredFitCacheTag,
				engine.ExpSetFingerprint(set), entries); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			iopts := opts
			iopts.CheckpointDir = dir
			iopts.CheckpointInterval = 3
			ctx, hook := cancelAt(5)
			iopts.OnGeneration = hook
			partial, err := Run(ctx, measuredSet(t, hiddenMapping()), iopts)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("interrupted run: err = %v, want ErrCanceled", err)
			}
			if partial == nil || partial.Best == nil {
				t.Fatal("interrupted run returned no partial result")
			}
			if partial.Generations != 5 {
				t.Fatalf("interrupted at generation 5, partial reports %d", partial.Generations)
			}
			historyPrefix(t, "interrupted", partial, full)
			if _, err := os.Stat(CheckpointPath(dir)); err != nil {
				t.Fatalf("no checkpoint on disk after interruption: %v", err)
			}
			if tc.plant != nil {
				tc.plant(t, dir)
			}

			ropts := opts
			ropts.CheckpointDir = dir
			var logs []string
			ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
			resumed, err := Resume(context.Background(), measuredSet(t, hiddenMapping()), ropts)
			if err != nil {
				t.Fatal(err)
			}
			if !containsLog(logs, "restored checkpoint at generation 5") {
				t.Errorf("resume did not report restoring the generation-5 checkpoint:\n%s", strings.Join(logs, "\n"))
			}
			sameTrajectory(t, "resumed", resumed, full)
			if got := mappingJSON(t, resumed.Best); !bytes.Equal(got, fullJSON) {
				t.Errorf("resumed mapping JSON differs from the uninterrupted run:\n%s\nvs\n%s", got, fullJSON)
			}
		})
	}
}

// TestResumeAfterInterruptBitIdenticalIslands pins the same contract
// for the island model: interruption at an epoch barrier, resume,
// bit-identical finish.
func TestResumeAfterInterruptBitIdenticalIslands(t *testing.T) {
	opts := ckptOpts()
	opts.Islands = 3
	opts.MigrationInterval = 2
	opts.MigrationCount = 1
	full := mustRun(t, opts)

	dir := t.TempDir()
	iopts := opts
	iopts.CheckpointDir = dir
	ctx, hook := cancelAt(6)
	iopts.OnGeneration = hook
	partial, err := Run(ctx, measuredSet(t, hiddenMapping()), iopts)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("interrupted island run: err = %v, want ErrCanceled", err)
	}
	if partial == nil || partial.Best == nil {
		t.Fatal("interrupted island run returned no partial result")
	}
	if err := partial.Best.Validate(); err != nil {
		t.Fatalf("partial best invalid: %v", err)
	}

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint") {
		t.Errorf("island resume did not restore:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "islands resumed", resumed, full)
}

// TestResumeBudgetExtension pins that a run which COMPLETED its
// generation budget checkpoints its final state, so a later resume with
// a larger MaxGenerations continues the same trajectory instead of
// restarting — MaxGenerations is deliberately excluded from the
// checkpoint content key.
func TestResumeBudgetExtension(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	dir := t.TempDir()
	sopts := opts
	sopts.MaxGenerations = 5
	sopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), sopts); err != nil {
		t.Fatal(err)
	}

	ropts := opts // full MaxGenerations again
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint at generation 5") {
		t.Errorf("budget extension did not restore the generation-5 checkpoint:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "budget extension", resumed, full)
}

// TestResumeIslandsBetweenMigrations stops an island run between two
// migrations — canceled at a periodic checkpoint barrier, or at the end
// of a smaller budget — and resumes it: the checkpoint must hold
// neither a pending nor a premature exchange, so the resumed run
// migrates on the uninterrupted run's schedule and finishes
// bit-identical to it.
func TestResumeIslandsBetweenMigrations(t *testing.T) {
	opts := ckptOpts()
	opts.Islands = 2
	opts.MigrationInterval = 5
	full := mustRun(t, opts)

	cases := []struct {
		name    string
		stop    func(o *Options) context.Context
		wantErr error
	}{
		{"canceled-at-checkpoint", func(o *Options) context.Context {
			o.CheckpointInterval = 2
			ctx, hook := cancelAt(7)
			o.OnGeneration = hook
			return ctx
		}, ErrCanceled},
		{"budget-ends", func(o *Options) context.Context {
			o.MaxGenerations = 7
			return context.Background()
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sopts := opts
			sopts.CheckpointDir = dir
			ctx := tc.stop(&sopts)
			partial, err := Run(ctx, measuredSet(t, hiddenMapping()), sopts)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("stopped run: err = %v, want %v", err, tc.wantErr)
			}
			if partial.Generations != 7 {
				t.Fatalf("stopped at generation 7, result reports %d", partial.Generations)
			}

			ropts := opts
			ropts.CheckpointDir = dir
			var logs []string
			ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
			resumed, err := Resume(context.Background(), measuredSet(t, hiddenMapping()), ropts)
			if err != nil {
				t.Fatal(err)
			}
			if !containsLog(logs, "restored checkpoint at generation 7") {
				t.Errorf("resume did not restore the generation-7 checkpoint:\n%s", strings.Join(logs, "\n"))
			}
			sameTrajectory(t, "resumed", resumed, full)
		})
	}
}

// TestResumeMissingCheckpointColdStarts: Resume against an empty
// directory must log a diagnostic and produce the cold-start result —
// never fail the run.
func TestResumeMissingCheckpointColdStarts(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	ropts := opts
	ropts.CheckpointDir = t.TempDir()
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "cold start") {
		t.Errorf("missing checkpoint did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "cold start", res, full)
}

// TestResumeMismatchedOptionsColdStarts: a checkpoint written under a
// different seed (any trajectory-shaping option) must be rejected by
// the content key, cold-starting with a diagnostic rather than
// splicing incompatible state into the run.
func TestResumeMismatchedOptionsColdStarts(t *testing.T) {
	dir := t.TempDir()
	wopts := ckptOpts()
	wopts.MaxGenerations = 5
	wopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), wopts); err != nil {
		t.Fatal(err)
	}

	fresh := ckptOpts()
	fresh.Seed = 12
	full := mustRun(t, fresh)

	ropts := fresh
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "cold start") {
		t.Errorf("seed mismatch did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "seed mismatch", res, full)
}

// TestCheckpointCrashBeforeRenameKeepsLastGood injects a crash in the
// window between temp-file write and rename on every checkpoint save:
// the file on disk must keep the last successfully written state, and
// a subsequent resume must restore it.
func TestCheckpointCrashBeforeRenameKeepsLastGood(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	// Phase 1: write a good generation-5 checkpoint.
	dir := t.TempDir()
	sopts := opts
	sopts.MaxGenerations = 5
	sopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), sopts); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume to generation 9 while every checkpoint rename
	// "crashes". The run itself must succeed (save failures are logged
	// and swallowed), and the on-disk checkpoint must stay at
	// generation 5.
	restore := faultfs.Set(&faultfs.Hooks{
		BeforeRename: func(_, newpath string) error {
			if strings.Contains(newpath, "evo-checkpoint") {
				return errors.New("injected crash before rename")
			}
			return nil
		},
	})
	mopts := opts
	mopts.MaxGenerations = 9
	mopts.CheckpointDir = dir
	mopts.Resume = true
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), mopts); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	// Phase 3: resume with the full budget. The only readable
	// checkpoint is the last-good generation-5 state; the final result
	// must still be bit-identical to the uninterrupted run.
	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	resumed, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "restored checkpoint at generation 5") {
		t.Errorf("expected last-good generation-5 restore:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "crash window", resumed, full)
}

// TestCheckpointTornWriteColdStarts injects a torn (truncated) write
// that still renames into place: the damaged file must be detected by
// the store's integrity checks on resume, degrading to a cold start
// with a diagnostic — never a misread.
func TestCheckpointTornWriteColdStarts(t *testing.T) {
	opts := ckptOpts()
	full := mustRun(t, opts)

	// The atomic-write temp files carry generic names, so the hook
	// tears every store write of the phase — checkpoint blob and cache
	// spills alike; all of them must degrade cleanly.
	dir := t.TempDir()
	restore := faultfs.Set(&faultfs.Hooks{
		BeforeWrite: func(_ string, data []byte) ([]byte, error) {
			return data[:len(data)/2], nil
		},
	})
	sopts := opts
	sopts.MaxGenerations = 5
	sopts.CheckpointDir = dir
	if _, err := Run(context.Background(), measuredSet(t, hiddenMapping()), sopts); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	var logs []string
	ropts.Log = func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }
	res, err := Run(context.Background(), measuredSet(t, hiddenMapping()), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if !containsLog(logs, "cold start") {
		t.Errorf("torn checkpoint did not log a cold-start diagnostic:\n%s", strings.Join(logs, "\n"))
	}
	sameTrajectory(t, "torn write", res, full)
}

// TestCheckpointBytesGolden pins the checkpoint file byte for byte: the
// SHA-256 of the blob a run leaves in its checkpoint directory, for one
// population run to completion, the same run canceled at generation 5,
// and three migrating islands run to completion. The digests were
// recorded before single-population runs moved onto the island
// coordinator; any change to the trajectory, the RNG positions, or the
// payload layout changes them.
func TestCheckpointBytesGolden(t *testing.T) {
	cases := []struct {
		name     string
		islands  int
		cancelAt int // 0: run to completion
		want     string
	}{
		{"islands1-complete", 1, 0, "36f41cbab39df24d8bf858e05df35622c1faf67c70a2e8bad00efc82b50e5763"},
		{"islands1-canceled-gen5", 1, 5, "5e44d4fdf0ee23afd32b4afbc701ec02c4c215a145661b3ccc04cff109602a66"},
		{"islands3-complete", 3, 0, "bdaceaff1b767f0518566f0b61d48f48ad010aad26e4aef7dbde66a61f5798f8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := ckptOpts()
			opts.Islands = tc.islands
			opts.MigrationInterval = 2
			opts.CheckpointInterval = 3
			opts.CheckpointDir = t.TempDir()
			ctx := context.Background()
			if tc.cancelAt > 0 {
				ctx, opts.OnGeneration = cancelAt(tc.cancelAt)
			}
			_, err := Run(ctx, measuredSet(t, hiddenMapping()), opts)
			if tc.cancelAt > 0 && !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if tc.cancelAt == 0 && err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(CheckpointPath(opts.CheckpointDir))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("checkpoint digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestCheckpointCadence pins that every run shape honours
// CheckpointInterval: with one or two islands, migrating or not, a
// checkpoint lands at least every CheckpointInterval generations and
// at the end of the generational phase, and the last OnGeneration call
// reports Result.Generations. The extra barriers never migrate, so the
// result matches the same run without checkpointing.
func TestCheckpointCadence(t *testing.T) {
	const interval = 2
	for _, islands := range []int{1, 2} {
		for _, migration := range []int{5, -1} {
			t.Run(fmt.Sprintf("islands%d-migration%d", islands, migration), func(t *testing.T) {
				opts := ckptOpts()
				opts.MaxGenerations = 12
				opts.Islands = islands
				opts.MigrationInterval = migration
				plain := mustRun(t, opts)
				opts.CheckpointInterval = interval
				opts.CheckpointDir = t.TempDir()
				var written []int
				opts.Log = func(f string, a ...any) {
					var g int
					if _, err := fmt.Sscanf(fmt.Sprintf(f, a...), "checkpoint written at generation %d", &g); err == nil {
						written = append(written, g)
					}
				}
				lastGen := -1
				opts.OnGeneration = func(g int) { lastGen = g }
				res := mustRun(t, opts)
				sameTrajectory(t, "checkpointed", res, plain)
				if lastGen != res.Generations {
					t.Errorf("last OnGeneration(%d), want Result.Generations %d", lastGen, res.Generations)
				}
				prev := 0
				for _, g := range written {
					if g-prev > interval {
						t.Errorf("checkpoints at generations %v: gap %d..%d exceeds %d", written, prev, g, interval)
					}
					prev = g
				}
				if prev != res.Generations {
					t.Errorf("checkpoints at generations %v, last should be %d", written, res.Generations)
				}
			})
		}
	}
}

// TestPlanCheckpointIntervalClamping pins the clamp-at-the-seam
// convention for the new knob (satellite: flag validation).
func TestPlanCheckpointIntervalClamping(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, defaultCheckpointInterval},
		{-1, -1},
		{-100, -1},
		{1, 1},
		{25, 25},
	}
	for _, c := range cases {
		if got := planCheckpointInterval(Options{CheckpointInterval: c.in}); got != c.want {
			t.Errorf("planCheckpointInterval(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func containsLog(logs []string, substr string) bool {
	for _, l := range logs {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}
