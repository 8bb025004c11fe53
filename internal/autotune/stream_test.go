package autotune

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/forest"
)

// TestTuneShardInvariance: the scoring shard size is a performance knob
// only — the whole pipeline (model, search, verify) must land on the
// exact same Outcome for the default shard and a small one.
func TestTuneShardInvariance(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.PoolSize = 400
	cfg.ModelBudget = 60
	cfg.SearchBudget = 1500
	cfg.Forest = forest.Config{NumTrees: 16}

	want, err := Tune(context.Background(), p, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg
	s.StreamShard = 64
	got, err := Tune(context.Background(), p, s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.Key() != want.Best.Key() {
		t.Fatalf("shard 64 best %v, default-shard best %v", got.Best, want.Best)
	}
	if got.BestMeasured != want.BestMeasured || got.ModelCost != want.ModelCost ||
		got.RealRuns != want.RealRuns || got.SearchEvaluations != want.SearchEvaluations ||
		got.BaselineMeasured != want.BaselineMeasured || got.PredictedBest != want.PredictedBest {
		t.Fatalf("shard 64 outcome %+v, default-shard %+v", got, want)
	}
}

// TestStreamQuantWarm: the quantized kernel plus warm updates (with the
// cross-scan cache active) drive the full pipeline to a sane outcome —
// quantized scores may shift individual selections within float32
// tolerance, so this checks the pipeline contract, not bit-equality
// with the exact kernel.
func TestStreamQuantWarm(t *testing.T) {
	p, err := bench.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.PoolSize = 400
	cfg.ModelBudget = 60
	cfg.SearchBudget = 1500
	cfg.Forest = forest.Config{NumTrees: 16}
	cfg.Quant = true
	cfg.WarmUpdate = true

	got, err := Tune(context.Background(), p, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best == nil || got.BestMeasured <= 0 || got.RealRuns < cfg.ModelBudget {
		t.Fatalf("quantized streamed tune produced an implausible outcome: %+v", got)
	}
	// Determinism holds within the quantized kernel.
	again, err := Tune(context.Background(), p, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.Best.Key() != got.Best.Key() || again.BestMeasured != got.BestMeasured {
		t.Fatal("quantized streamed tune not deterministic under a fixed seed")
	}
}
