package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// The session-equivalence gate: the run engine's observable behavior —
// labels, selections, telemetry counters, RNG stream position, and the
// snapshot wire format — is pinned to goldens captured from the
// pre-refactor monolithic Run/RunStream loops. The ask-tell Session
// rebuild must reproduce them bit for bit for all 8 strategies, over a
// materialized pool (the "run" cells: Run over a pool.Slice) and a
// lazily generated one (the "stream" cells), and from a resume at every
// checkpoint prefix.
//
// Regenerate with SESSION_GOLDEN_UPDATE=1 (only legitimate when the
// engine's observable contract deliberately changes).

const sessionGoldenPath = "testdata/session_golden.json"

// goldenSpace is the fixture space: two numeric parameters and one
// categorical, so both feature kinds flow through selection and fitting.
func goldenSpace() *space.Space {
	return space.MustNew(
		space.NumRange("a", 0, 9, 1),
		space.NumRange("b", 0, 7, 1),
		space.Cat("c", "x", "y", "z"),
	)
}

// goldenEvaluator is a pure deterministic objective (no noise state, so
// resume needs no evaluator-state restore).
func goldenEvaluator(sp *space.Space) Evaluator {
	effect := []float64{0.0, 1.5, -0.5}
	return AdaptEvaluator(LegacyEvaluatorFunc(func(c space.Config) float64 {
		a := sp.ValueByName(c, "a")
		b := sp.ValueByName(c, "b")
		k := sp.LevelByName(c, "c")
		return (a-5)*(a-5) + (b-3)*(b-3) + 0.1*a*b + effect[k] + 1
	}))
}

func goldenParams(checkpoint func(*Snapshot) error) Params {
	return Params{
		NInit: 6, NBatch: 3, NMax: 24,
		Forest:           forest.Config{NumTrees: 12, Workers: 2},
		RecordSelections: true,
		CheckpointEvery:  1,
		Checkpoint:       checkpoint,
	}
}

const (
	goldenPoolSeed = 7701
	goldenRunSeed  = 7702
	goldenPoolSize = 200
)

// goldenStrategies returns all eight registered strategies.
func goldenStrategies(t testing.TB) []Strategy {
	t.Helper()
	names := []string{"PWU", "PBUS", "BRS", "BestPerf", "MaxU", "Random", "CV", "EI"}
	out := make([]Strategy, len(names))
	for i, n := range names {
		s, err := ByName(n, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// goldenCase is one (strategy, mode) cell of the golden table.
type goldenCase struct {
	Strategy     string          `json:"strategy"`
	Streamed     bool            `json:"streamed"`
	TrainConfigs []space.Config  `json:"train_configs"`
	TrainY       []float64       `json:"train_y"`
	Selections   []Selection     `json:"selections"`
	Iterations   int             `json:"iterations"`
	RNG          rng.State       `json:"rng"`
	Stats        []IterStats     `json:"stats"`
	FailedCost   float64         `json:"failed_cost"`
	GuardCost    float64         `json:"guard_cost"`
	SnapshotAt   int             `json:"snapshot_at"`
	Snapshot     json.RawMessage `json:"snapshot"`
}

// zeroDurations strips the wall-clock fields, which are explicitly
// excluded from the engine's bit-identity guarantees.
func zeroDurations(stats []IterStats) []IterStats {
	out := append([]IterStats(nil), stats...)
	for i := range out {
		out[i].FitTime, out[i].SelectTime, out[i].EvalTime = 0, 0, 0
	}
	return out
}

// canonicalSnapshot renders a snapshot deterministically: durations
// zeroed and the serialized model replaced by its SHA-256, so the golden
// stays compact while still pinning the model bytes.
func canonicalSnapshot(t testing.TB, snap *Snapshot) json.RawMessage {
	t.Helper()
	cp := *snap
	cp.Stats = zeroDurations(cp.Stats)
	sum := sha256.Sum256(cp.Model)
	hashed, err := json.Marshal("sha256:" + hex.EncodeToString(sum[:]))
	if err != nil {
		t.Fatal(err)
	}
	cp.Model = hashed
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenRun executes one cell and returns the case plus every boundary
// snapshot (CheckpointEvery = 1).
func goldenRun(t testing.TB, strat Strategy, streamed bool) (goldenCase, []*Snapshot) {
	t.Helper()
	sp := goldenSpace()
	src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
	ev := goldenEvaluator(sp)
	var snaps []*Snapshot
	params := goldenParams(func(s *Snapshot) error { snaps = append(snaps, s); return nil })
	var (
		res *Result
		err error
	)
	if streamed {
		res, err = RunStream(context.Background(), src, ev, strat, params, rng.New(goldenRunSeed), nil)
	} else {
		res, err = Run(context.Background(), sp, materialize(t, src), ev, strat, params, rng.New(goldenRunSeed), nil)
	}
	if err != nil {
		t.Fatalf("%s streamed=%v: %v", strat.Name(), streamed, err)
	}
	mid := snaps[len(snaps)/2]
	gc := goldenCase{
		Strategy:     strat.Name(),
		Streamed:     streamed,
		TrainConfigs: res.TrainConfigs,
		TrainY:       res.TrainY,
		Selections:   res.Selections,
		Iterations:   res.Iterations,
		RNG:          res.RNGState,
		Stats:        zeroDurations(res.Stats),
		FailedCost:   res.FailedCost,
		GuardCost:    res.GuardCost,
		SnapshotAt:   mid.Iteration,
		Snapshot:     canonicalSnapshot(t, mid),
	}
	return gc, snaps
}

// materialize drains a source into a config slice, the same candidate
// sequence the streamed mode scores lazily.
func materialize(t testing.TB, src pool.Source) []space.Config {
	t.Helper()
	src.Reset()
	d := src.Space().NumParams()
	out := make([]space.Config, 0, src.Len())
	buf := make([]space.Config, 64)
	for i := range buf {
		buf[i] = make(space.Config, d)
	}
	for {
		n := src.Next(buf)
		if n == 0 {
			break
		}
		for _, c := range buf[:n] {
			out = append(out, c.Clone())
		}
	}
	src.Reset()
	return out
}

// caseKey identifies a golden cell in failure messages.
func caseKey(gc goldenCase) string {
	mode := "run"
	if gc.Streamed {
		mode = "stream"
	}
	return fmt.Sprintf("%s/%s", gc.Strategy, mode)
}

func marshalGolden(t testing.TB, cases []goldenCase) []byte {
	t.Helper()
	data, err := json.MarshalIndent(cases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestSessionEquivalenceGolden pins every strategy's full run, in both
// modes, to the pre-refactor goldens.
func TestSessionEquivalenceGolden(t *testing.T) {
	var cases []goldenCase
	for _, strat := range goldenStrategies(t) {
		for _, streamed := range []bool{false, true} {
			gc, _ := goldenRun(t, strat, streamed)
			cases = append(cases, gc)
		}
	}
	got := marshalGolden(t, cases)

	if os.Getenv("SESSION_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(sessionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sessionGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", sessionGoldenPath, len(got))
		return
	}

	want, err := os.ReadFile(sessionGoldenPath)
	if err != nil {
		t.Fatalf("reading goldens (regenerate with SESSION_GOLDEN_UPDATE=1): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Locate the first diverging case for a readable failure.
	var wantCases []goldenCase
	if err := json.Unmarshal(want, &wantCases); err != nil {
		t.Fatalf("goldens corrupt: %v", err)
	}
	if len(wantCases) != len(cases) {
		t.Fatalf("golden has %d cases, engine produced %d", len(wantCases), len(cases))
	}
	for i := range cases {
		g, w := marshalGolden(t, cases[i:i+1]), marshalGolden(t, wantCases[i:i+1])
		if !bytes.Equal(g, w) {
			t.Errorf("%s diverged from pre-refactor golden:\n got: %.2000s\nwant: %.2000s", caseKey(cases[i]), g, w)
		}
	}
	if !t.Failed() {
		t.Fatal("golden bytes differ but no case diverged (formatting drift?)")
	}
}

// TestSessionResumeEveryPrefix proves resumability from every checkpoint
// boundary: for each strategy and mode, resuming from each of the run's
// snapshots must land on exactly the uninterrupted run's result.
func TestSessionResumeEveryPrefix(t *testing.T) {
	sp := goldenSpace()
	for _, strat := range goldenStrategies(t) {
		for _, streamed := range []bool{false, true} {
			full, snaps := goldenRun(t, strat, streamed)
			ev := goldenEvaluator(sp)
			for _, snap := range snaps {
				params := goldenParams(nil)
				params.CheckpointEvery = 0
				var (
					res *Result
					err error
				)
				if streamed {
					src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
					res, err = ResumeStream(context.Background(), snap, src, ev, strat, params, nil)
				} else {
					src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
					res, err = Resume(context.Background(), snap, sp, materialize(t, src), ev, strat, params, nil)
				}
				if err != nil {
					t.Fatalf("%s: resume from iteration %d: %v", caseKey(full), snap.Iteration, err)
				}
				got := goldenCase{
					Strategy:     full.Strategy,
					Streamed:     streamed,
					TrainConfigs: res.TrainConfigs,
					TrainY:       res.TrainY,
					Selections:   res.Selections,
					Iterations:   res.Iterations,
					RNG:          res.RNGState,
					Stats:        zeroDurations(res.Stats),
					FailedCost:   res.FailedCost,
					GuardCost:    res.GuardCost,
					SnapshotAt:   full.SnapshotAt,
					Snapshot:     full.Snapshot,
				}
				g, w := marshalGolden(t, []goldenCase{got}), marshalGolden(t, []goldenCase{full})
				if !bytes.Equal(g, w) {
					t.Fatalf("%s: resume from iteration %d diverged from the uninterrupted run", caseKey(full), snap.Iteration)
				}
			}
		}
	}
}
