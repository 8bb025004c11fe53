package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/forest"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// Snapshot wire versions. The engine writes the lowest version that can
// represent the state — version 1 unless the session carries a service
// manifest — and reads every version in the supported range, so
// checkpoints written by older engine generations keep resuming and a
// genuinely unknown version fails with a typed error instead of a
// silent misparse.
const (
	// snapshotVersion is the base wire format (pre-service engine
	// generations wrote nothing else).
	snapshotVersion = 1

	// snapshotVersionService adds the opaque service manifest a
	// daemon-managed session stores for crash recovery.
	snapshotVersionService = 2
)

// SnapshotVersionError reports a snapshot whose wire version this
// engine generation cannot read.
type SnapshotVersionError struct {
	Version int
}

// Error implements error.
func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("core: snapshot version %d unsupported (engine speaks %d..%d)",
		e.Version, snapshotVersion, snapshotVersionService)
}

// checkSnapshotVersion rejects wire versions outside the supported
// range with a typed error.
func checkSnapshotVersion(v int) error {
	if v < snapshotVersion || v > snapshotVersionService {
		return &SnapshotVersionError{Version: v}
	}
	return nil
}

// Snapshot is the complete serializable state of a run at an iteration
// boundary. Together with the inputs that are regenerated
// deterministically by the caller (the pool source, the evaluator, the
// strategy, the params), it is sufficient for Resume/ResumeStream to
// continue the run bit-identically — same labels, same selections, same
// RNG stream position — as if it had never stopped.
//
// The pool itself is not stored (it can be huge and is deterministic
// from the caller's seed); PoolSize and PoolHash fingerprint it so a
// resume can reject a mismatched pool instead of silently diverging.
type Snapshot struct {
	Version   int `json:"version"`
	Iteration int `json:"iteration"`

	// PoolSize / PoolHash fingerprint the pool the run was started with:
	// PoolHash is the source's Fingerprint.
	PoolSize int    `json:"pool_size"`
	PoolHash uint64 `json:"pool_hash"`

	// Remaining is the legacy membership representation, written only
	// by the retired in-memory engine: the unlabeled pool indices in
	// ascending order, with PoolHash the FNV-1a of the pool's level
	// indices (legacyPoolHash). Such snapshots still resume — their
	// membership is converted to Taken. The engine leaves it nil.
	Remaining []int `json:"remaining"`

	// Streamed marks the Taken representation every snapshot is now
	// written in; legacy in-memory snapshots lack it. Both fields are
	// additive to the version-1 format.
	Streamed bool `json:"streamed,omitempty"`

	// Taken is the sorted set of global source indices already removed
	// from the pool.
	Taken []int `json:"taken,omitempty"`

	// TrainConfigs / TrainY are the labeled set in labeling order.
	TrainConfigs []space.Config `json:"train_configs"`
	TrainY       []float64      `json:"train_y"`

	// RNG is the loop generator's stream position.
	RNG rng.State `json:"rng"`

	// Evaluator is the evaluator's internal generator state, present
	// when the evaluator implements StatefulEvaluator (the benchmark
	// noise stream).
	Evaluator *rng.State `json:"evaluator,omitempty"`

	// Model is the fitted surrogate, serialized by its own marshaler
	// (the forest/tree JSON format by default).
	Model json.RawMessage `json:"model"`

	// Stats, Selections, FailedCost and GuardCost restore the Result
	// bookkeeping so a resumed run's Result matches the uninterrupted
	// one. GuardCost is additive to the version-1 format: snapshots
	// written before the label guard load with a zero value.
	Stats      []IterStats `json:"stats,omitempty"`
	Selections []Selection `json:"selections,omitempty"`
	FailedCost float64     `json:"failed_cost,omitempty"`
	GuardCost  float64     `json:"guard_cost,omitempty"`

	// Service is the opaque session manifest of a daemon-managed
	// session (SessionConfig.Service), stored verbatim. Its presence
	// bumps the wire version to snapshotVersionService; plain runs omit
	// it and keep writing the version-1 format byte for byte.
	Service json.RawMessage `json:"service,omitempty"`
}

// legacyPoolHash is the pool fingerprint legacy in-memory snapshots
// carry: FNV-1a over the pool length and every config's length and level
// indices, folded here over the source's candidate sequence.
func legacyPoolHash(src pool.Source) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(src.Len()))
	d := src.Space().NumParams()
	buf := make([]space.Config, 1024)
	for i := range buf {
		buf[i] = make(space.Config, d)
	}
	src.Reset()
	for n := src.Next(buf); n > 0; n = src.Next(buf) {
		for _, c := range buf[:n] {
			mix(uint64(len(c)))
			for _, lvl := range c {
				mix(uint64(int64(lvl)))
			}
		}
	}
	return h
}

// legacyTaken converts a legacy snapshot's Remaining membership into the
// Taken set: the complement of Remaining in [0, n). Remaining must be
// ascending and unique, as the in-memory engine always kept it.
func legacyTaken(remaining []int, n int) ([]int, error) {
	if len(remaining) > n {
		return nil, fmt.Errorf("core: snapshot remaining set has %d entries for a pool of %d", len(remaining), n)
	}
	taken := make([]int, 0, n-len(remaining))
	next := 0
	for i, idx := range remaining {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("core: snapshot remaining index %d out of pool range", idx)
		}
		if i > 0 && idx <= remaining[i-1] {
			return nil, fmt.Errorf("core: snapshot remaining set not ascending and unique at %d", i)
		}
		for ; next < idx; next++ {
			taken = append(taken, next)
		}
		next = idx + 1
	}
	for ; next < n; next++ {
		taken = append(taken, next)
	}
	return taken, nil
}

// checkpoint hands a snapshot to the configured sink when due: after
// the cold start (iteration 0) and after every CheckpointEvery-th
// completed iteration.
func (s *Session) checkpoint(force bool) error {
	if s.p.Checkpoint == nil {
		return nil
	}
	if !force {
		if s.p.CheckpointEvery <= 0 || s.iter%s.p.CheckpointEvery != 0 {
			return nil
		}
	}
	snap, err := s.snapshot()
	if err != nil {
		return fmt.Errorf("core: snapshot at iteration %d: %w", s.iter, err)
	}
	if err := s.p.Checkpoint(snap); err != nil {
		return fmt.Errorf("core: checkpoint at iteration %d: %w", s.iter, err)
	}
	return nil
}

// drainCheckpoint persists the boundary state when a cancellation lands
// between iterations. The run is already returning ctx.Err(); a sink
// failure here cannot change that outcome, so it is ignored — the
// previous periodic snapshot remains valid.
func (s *Session) drainCheckpoint() {
	if s.p.Checkpoint == nil {
		return
	}
	if snap, err := s.snapshot(); err == nil {
		_ = s.p.Checkpoint(snap)
	}
}

// Snapshot captures the session's state for persistence. It is valid
// only at an iteration boundary (no labels outstanding): mid-batch
// state is deliberately not serializable, because resume re-derives the
// lost batch deterministically from the restored generator.
func (s *Session) Snapshot() (*Snapshot, error) {
	switch s.phase {
	case phaseReady, phaseDone:
		return s.snapshot()
	default:
		return nil, fmt.Errorf("core: snapshot only at an iteration boundary (phase %s)", s.phase)
	}
}

// snapshot captures the session's boundary state. Slices are copied so
// the snapshot stays valid while the session keeps running.
func (s *Session) snapshot() (*Snapshot, error) {
	model, err := json.Marshal(s.model)
	if err != nil {
		return nil, fmt.Errorf("serializing model: %w", err)
	}
	snap := &Snapshot{
		Version:      snapshotVersion,
		Iteration:    s.iter,
		PoolSize:     s.src.Len(),
		PoolHash:     s.src.Fingerprint(),
		Streamed:     true,
		Taken:        append([]int(nil), s.taken...),
		TrainConfigs: append([]space.Config(nil), s.res.TrainConfigs...),
		TrainY:       append([]float64(nil), s.res.TrainY...),
		RNG:          s.r.State(),
		Model:        model,
		Stats:        append([]IterStats(nil), s.res.Stats...),
		Selections:   append([]Selection(nil), s.res.Selections...),
		FailedCost:   s.res.FailedCost,
		GuardCost:    s.res.GuardCost,
	}
	if s.service != nil {
		snap.Version = snapshotVersionService
		snap.Service = append(json.RawMessage(nil), s.service...)
	}
	if sev, ok := s.ev.(StatefulEvaluator); ok {
		st := sev.EvaluatorState()
		snap.Evaluator = &st
	}
	return snap, nil
}

// defaultModelLoader is the resume model fallback, matching
// the default forest Fitter.
func defaultModelLoader(data []byte) (Model, error) {
	return forest.Load(bytes.NewReader(data))
}

// ResumeSession rebuilds a Session from a Snapshot at the iteration
// boundary it was taken at. The configuration supplies the regenerated
// deterministic inputs (the source — validated against the snapshot's
// fingerprint — strategy and params, which must match the
// original run's); the snapshot restores the labeled set, pool
// membership, the generator, the fitted model and, when present, the
// evaluator's noise stream (via SessionConfig.Evaluator). The
// configuration's RNG is ignored; the generator always resumes from the
// snapshot's stream position.
func ResumeSession(snap *Snapshot, cfg SessionConfig) (*Session, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if err := checkSnapshotVersion(snap.Version); err != nil {
		return nil, err
	}
	if cfg.Service == nil {
		cfg.Service = snap.Service
	}
	s, err := newSession(cfg, nil)
	if err != nil {
		return nil, err
	}
	n := s.src.Len()
	if n != snap.PoolSize {
		return nil, fmt.Errorf("core: pool size %d does not match snapshot's %d", n, snap.PoolSize)
	}
	taken := snap.Taken
	if snap.Streamed {
		if h := s.src.Fingerprint(); h != snap.PoolHash {
			return nil, fmt.Errorf("core: source fingerprint %#x does not match snapshot's %#x (different source or seed)", h, snap.PoolHash)
		}
		for i, g := range taken {
			if g < 0 || g >= n {
				return nil, fmt.Errorf("core: snapshot taken index %d out of source range", g)
			}
			if i > 0 && g <= taken[i-1] {
				return nil, fmt.Errorf("core: snapshot taken set not sorted and unique at %d", i)
			}
		}
	} else {
		if h := legacyPoolHash(s.src); h != snap.PoolHash {
			return nil, fmt.Errorf("core: pool hash %#x does not match snapshot's %#x (different pool or seed)", h, snap.PoolHash)
		}
		if taken, err = legacyTaken(snap.Remaining, n); err != nil {
			return nil, err
		}
	}
	if len(snap.TrainConfigs) != len(snap.TrainY) {
		return nil, fmt.Errorf("core: snapshot has %d configs but %d labels", len(snap.TrainConfigs), len(snap.TrainY))
	}
	if len(snap.TrainY) == 0 || len(snap.TrainY) > s.p.NMax {
		return nil, fmt.Errorf("core: snapshot labeled-set size %d outside (0, NMax=%d]", len(snap.TrainY), s.p.NMax)
	}

	r, err := rng.FromState(snap.RNG)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG: %w", err)
	}
	loader := s.p.ModelLoader
	if loader == nil {
		loader = defaultModelLoader
	}
	model, err := loader(snap.Model)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot model: %w", err)
	}
	if snap.Evaluator != nil {
		sev, ok := cfg.Evaluator.(StatefulEvaluator)
		if !ok {
			return nil, fmt.Errorf("core: snapshot carries evaluator state but evaluator %T cannot restore it", cfg.Evaluator)
		}
		if err := sev.RestoreEvaluatorState(*snap.Evaluator); err != nil {
			return nil, fmt.Errorf("core: restoring evaluator state: %w", err)
		}
	}

	s.r = r
	s.model = model
	s.iter = snap.Iteration
	s.res = &Result{
		TrainConfigs: append([]space.Config(nil), snap.TrainConfigs...),
		TrainY:       append([]float64(nil), snap.TrainY...),
		Selections:   append([]Selection(nil), snap.Selections...),
		Stats:        append([]IterStats(nil), snap.Stats...),
		FailedCost:   snap.FailedCost,
		GuardCost:    snap.GuardCost,
		Iterations:   snap.Iteration,
		Model:        model,
	}
	s.taken = append(s.taken[:0], taken...)
	for _, c := range snap.TrainConfigs {
		s.trainX = append(s.trainX, s.sp.Encode(c))
	}
	for _, y := range snap.TrainY {
		s.labelSum += y
	}
	if len(s.res.TrainY) >= s.p.NMax {
		s.phase = phaseDone
	} else {
		s.phase = phaseReady
	}
	return s, nil
}

// Resume continues a run from a Snapshot, bit-identically to the run
// that would have happened without the interruption: same labeled set,
// same selections, same RNG stream position (proven by the equivalence
// test and enforced by `make resume-equivalence`).
//
// The caller regenerates the run's deterministic inputs — the space,
// the pool (validated against the snapshot's fingerprint), the
// evaluator, the strategy and the params, which must match the original
// run — and Resume restores the rest from the snapshot: the labeled
// set, pool membership, the loop generator, the fitted model (via
// params.ModelLoader, defaulting to the forest format) and, for
// StatefulEvaluator evaluators, the evaluator's noise stream. It is
// ResumeStream over pool.NewSlice(sp, configs), and also resumes legacy
// snapshots written by the retired in-memory engine.
func Resume(ctx context.Context, snap *Snapshot, sp *space.Space, configs []space.Config, ev Evaluator, strat Strategy, params Params, obs Observer) (*Result, error) {
	if sp == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	return ResumeStream(ctx, snap, pool.NewSlice(sp, configs), ev, strat, params, obs)
}
