package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
)

// sessionFixture builds a streamed session over the golden space with a
// small forest, returning the session and a deterministic labeling
// function for driving it by hand.
func sessionFixture(t *testing.T, params Params, service json.RawMessage) (*Session, func(c []int) float64) {
	t.Helper()
	sp := goldenSpace()
	src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
	s, err := NewSession(SessionConfig{
		Source: src, Strategy: PWU{Alpha: 0.1}, Params: params,
		RNG: rng.New(991), Service: service,
	})
	if err != nil {
		t.Fatal(err)
	}
	label := func(c []int) float64 {
		a := sp.ValueByName(c, "a")
		b := sp.ValueByName(c, "b")
		return (a-4)*(a-4) + (b-2)*(b-2) + 1
	}
	return s, label
}

func sessionParams() Params {
	return Params{NInit: 5, NBatch: 2, NMax: 11, Forest: smallForest()}
}

// TestSessionAskTellBasics drives a session by hand: cold batch sizes,
// Ask idempotency, batch tells, phase transitions and completion.
func TestSessionAskTellBasics(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)

	if s.Phase() != "cold" || s.Done() {
		t.Fatalf("fresh session: phase=%s done=%v", s.Phase(), s.Done())
	}
	cold, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 5 {
		t.Fatalf("cold batch = %d, want NInit=5", len(cold))
	}
	again, err := s.Ask(ctx)
	if err != nil || len(again) != 5 {
		t.Fatalf("re-Ask not idempotent: %v %d", err, len(again))
	}
	for i := range cold {
		if cold[i].Key() != again[i].Key() {
			t.Fatalf("re-Ask changed batch at %d", i)
		}
	}

	// Batch tell of the whole cold start at once.
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	rep, err := s.Tell(ctx, labels)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.Consumed != 5 || rep.Pending != 0 {
		t.Fatalf("cold tell report: %+v", rep)
	}
	if s.Phase() != "ready" || s.Samples() != 5 || s.Model() == nil {
		t.Fatalf("after cold: phase=%s samples=%d model=%v", s.Phase(), s.Samples(), s.Model())
	}

	// Telling at a boundary is an error; so is an oversized tell later.
	if _, err := s.Tell(ctx, []Label{{Y: 1}}); err == nil {
		t.Fatal("tell at boundary accepted")
	}
	for !s.Done() {
		batch, err := s.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Tell(ctx, make([]Label, len(batch)+1)); err == nil {
			t.Fatal("oversized tell accepted")
		}
		for _, c := range batch {
			if _, err := s.Tell(ctx, []Label{{Y: label(c)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Samples() != 11 {
		t.Fatalf("done at %d samples, want NMax=11", s.Samples())
	}
	if _, err := s.Ask(ctx); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("Ask after done: %v", err)
	}
	if _, err := s.Tell(ctx, []Label{{Y: 1}}); !errors.Is(err, ErrSessionDone) {
		t.Fatalf("Tell after done: %v", err)
	}
}

// TestSessionGuardRemeasureProtocol exercises the ask-tell form of the
// label guard: a flagged label inserts re-measurement slots, the tell
// stops consuming, and the re-asked queue leads with the flagged
// configuration.
func TestSessionGuardRemeasureProtocol(t *testing.T) {
	ctx := context.Background()
	p := sessionParams()
	p.Guard = LabelGuard{Z: 2, K: 3}
	s, label := sessionFixture(t, p, nil)

	cold, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}

	batch, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("batch = %d, want 2", len(batch))
	}
	// First label is a wild outlier followed by an honest second label:
	// the tell must stop after the outlier (Consumed=1) because the
	// guard queued re-measurements in between.
	rep, err := s.Tell(ctx, []Label{{Y: 1e9}, {Y: label(batch[1])}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consumed != 1 || rep.Flagged != 1 || rep.Remeasure != 3 {
		t.Fatalf("outlier tell report: %+v", rep)
	}
	if rep.Pending != 4 { // 3 re-measurements + the untold second item
		t.Fatalf("pending = %d, want 4", rep.Pending)
	}
	requeued, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if requeued[i].Key() != batch[0].Key() {
			t.Fatalf("re-ask slot %d is not the flagged config", i)
		}
	}
	if requeued[3].Key() != batch[1].Key() {
		t.Fatal("second original item lost after re-measure insertion")
	}
	// Honest re-measurements: median becomes the label, run continues.
	honest := label(batch[0])
	rep, err = s.Tell(ctx, []Label{{Y: honest}, {Y: honest + 0.1}, {Y: honest - 0.1}, {Y: label(batch[1])}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("batch not completed: %+v", rep)
	}
	res := s.Result()
	tel := res.Telemetry()
	if tel.GuardFlagged != 1 || tel.GuardRemeasured != 1 || tel.GuardQuarantined != 0 {
		t.Fatalf("guard counters: %+v", tel)
	}
	got := res.TrainY[len(res.TrainY)-2] // flagged item trains before the second item
	if math.Abs(got-honest) > 1e-12 {
		t.Fatalf("flagged label = %v, want median %v", got, honest)
	}
}

// TestSessionSnapshotBoundaryOnly pins the snapshot contract: snapshots
// exist only at iteration boundaries, never mid-batch.
func TestSessionSnapshotBoundaryOnly(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot of cold session accepted")
	}
	cold, _ := s.Ask(ctx)
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("mid-batch snapshot accepted")
	}
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || !snap.Streamed || snap.Iteration != 0 {
		t.Fatalf("boundary snapshot: version=%d streamed=%v iter=%d", snap.Version, snap.Streamed, snap.Iteration)
	}
}

// TestSessionHostileLabelSanitization: non-positive / non-finite costs
// and negative counters from an untrusted caller must not corrupt the
// telemetry.
func TestSessionHostileLabelSanitization(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)
	cold, _ := s.Ask(ctx)
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{
			Y:          label(c),
			Retries:    -5,
			Timeouts:   -7,
			FailedCost: math.Inf(1),
		}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}
	tel := s.Result().Telemetry()
	if tel.EvalRetries != 0 || tel.EvalTimeouts != 0 || tel.FailedCost != 0 {
		t.Fatalf("hostile label fields leaked into telemetry: %+v", tel)
	}
}

// TestSessionPoolCachedTelemetry pins IterStats.PoolCached: it marks
// iterations whose scan the cross-scan cache served, so a warm-update
// run sets it on every loop iteration and a cold-refit run (no cache)
// never does; the cold start scans nothing and is never marked.
func TestSessionPoolCachedTelemetry(t *testing.T) {
	for _, warm := range []bool{false, true} {
		p := sessionParams()
		p.WarmUpdate = warm
		s, label := sessionFixture(t, p, nil)
		for !s.Done() {
			batch, err := s.Ask(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]Label, len(batch))
			for i, c := range batch {
				labels[i] = Label{Y: label(c)}
			}
			if _, err := s.Tell(context.Background(), labels); err != nil {
				t.Fatal(err)
			}
		}
		res := s.Result()
		for _, st := range res.Stats {
			if want := warm && st.Iteration > 0; st.PoolCached != want {
				t.Fatalf("warm=%v iteration %d: PoolCached=%v, want %v", warm, st.Iteration, st.PoolCached, want)
			}
		}
		want := 0
		if warm {
			want = res.Iterations
		}
		if got := res.Telemetry().CachedIterations; got != want {
			t.Fatalf("warm=%v: %d cached iterations, want %d", warm, got, want)
		}
	}
}

// TestResumeRejectsUnpredictableModel: a checkpoint whose forest splits
// on a feature the schema does not have fails ResumeSession with an
// error. It used to load and then panic on the first prediction, inside
// a pool scan worker where no recover can reach it.
func TestResumeRejectsUnpredictableModel(t *testing.T) {
	ctx := context.Background()
	s, label := sessionFixture(t, sessionParams(), nil)
	cold, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]Label, len(cold))
	for i, c := range cold {
		labels[i] = Label{Y: label(c)}
	}
	if _, err := s.Tell(ctx, labels); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var model map[string]interface{}
	if err := json.Unmarshal(snap.Model, &model); err != nil {
		t.Fatal(err)
	}
	split := false
	for _, tr := range model["trees"].([]interface{}) {
		root := tr.(map[string]interface{})["root"].(map[string]interface{})
		if _, ok := root["l"]; ok {
			root["f"], split = 99, true
			break
		}
	}
	if !split {
		t.Fatal("fixture forest has no split")
	}
	bad := *snap
	if bad.Model, err = json.Marshal(model); err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		Source:   pool.NewUniform(goldenSpace(), goldenPoolSeed, goldenPoolSize),
		Strategy: PWU{Alpha: 0.1}, Params: sessionParams(),
	}
	if _, err := ResumeSession(&bad, cfg); err == nil {
		t.Fatal("resumed a model that splits on feature 99")
	}
	if _, err := ResumeSession(snap, cfg); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}
}
