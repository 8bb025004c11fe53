package core

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/pool"
)

// legacySnapshotPath is a mid-run checkpoint of the golden PWU case,
// written by the materialized in-memory engine (version 1, `remaining`
// membership, `streamed` absent, pool_hash over the pool slice). Such
// checkpoints exist on disk and must keep resuming.
const legacySnapshotPath = "testdata/legacy_run_snapshot_v1.json"

// TestResumeLegacyInMemorySnapshot resumes the committed legacy fixture
// through Resume and requires the uninterrupted golden run, field for
// field. PoolCached is cleared on both sides: it records how a past
// iteration's scan was served, not what it selected.
func TestResumeLegacyInMemorySnapshot(t *testing.T) {
	data, err := os.ReadFile(legacySnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streamed || snap.Remaining == nil || snap.Taken != nil {
		t.Fatalf("fixture is not a legacy in-memory snapshot: streamed=%v remaining=%d taken=%d",
			snap.Streamed, len(snap.Remaining), len(snap.Taken))
	}
	strat := PWU{Alpha: 0.05}
	full, _ := goldenRun(t, strat, false)

	sp := goldenSpace()
	params := goldenParams(nil)
	params.CheckpointEvery = 0
	src := pool.NewUniform(sp, goldenPoolSeed, goldenPoolSize)
	res, err := Resume(context.Background(), &snap, sp, materialize(t, src), goldenEvaluator(sp), strat, params, nil)
	if err != nil {
		t.Fatalf("resume legacy snapshot: %v", err)
	}
	got := goldenCase{
		Strategy:     full.Strategy,
		Streamed:     full.Streamed,
		TrainConfigs: res.TrainConfigs,
		TrainY:       res.TrainY,
		Selections:   res.Selections,
		Iterations:   res.Iterations,
		RNG:          res.RNGState,
		Stats:        clearPoolCached(zeroDurations(res.Stats)),
		FailedCost:   res.FailedCost,
		GuardCost:    res.GuardCost,
		SnapshotAt:   full.SnapshotAt,
		Snapshot:     full.Snapshot,
	}
	full.Stats = clearPoolCached(full.Stats)
	if g, w := marshalGolden(t, []goldenCase{got}), marshalGolden(t, []goldenCase{full}); !bytes.Equal(g, w) {
		t.Fatalf("legacy resume diverged from the uninterrupted run:\n got: %.1500s\nwant: %.1500s", g, w)
	}
}

// clearPoolCached returns stats with every PoolCached flag cleared.
func clearPoolCached(stats []IterStats) []IterStats {
	out := append([]IterStats(nil), stats...)
	for i := range out {
		out[i].PoolCached = false
	}
	return out
}
