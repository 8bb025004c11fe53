package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/forest"
	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// fitRecorder is the core.Fitter the benchmark hands to the engine in
// place of the default. It calls forest.Fit with the workload's own
// config, exactly as the engine's default fitter does, so trajectories
// are unchanged; when traced it records a span, the fit time and the
// training-set size of every fit, and keeps recent training sets for
// the tree.Fit replay.
type fitRecorder struct {
	cfg    forest.Config
	tr     *tracer
	parent atomic.Int32 // span the next fits belong to
	// before, when set, is called with the training-set size at the
	// start of every fit.
	before func(rows int)

	mu       sync.Mutex
	rows     int
	fitMS    []float64
	captured []fitInput
	next     int
	last     *forest.Forest
}

type fitInput struct {
	X        [][]float64
	y        []float64
	features []space.Feature
}

// keepFits bounds the training sets kept for the tree.Fit replay.
const keepFits = 16

func newFitRecorder(cfg forest.Config, tr *tracer) *fitRecorder {
	return &fitRecorder{cfg: cfg, tr: tr}
}

func (f *fitRecorder) fit(X [][]float64, y []float64, fs []space.Feature, r *rng.RNG) (core.Model, error) {
	if f.before != nil {
		f.before(len(y))
	}
	if f.tr == nil {
		return forestModel(forest.Fit(X, y, fs, f.cfg, r))
	}
	id := f.tr.begin(f.parent.Load(), "forest", "forest.Fit")
	start := time.Now()
	m, err := forest.Fit(X, y, fs, f.cfg, r)
	d := time.Since(start)
	f.tr.end(id)
	if err == nil {
		in := fitInput{X: append([][]float64(nil), X...), y: append([]float64(nil), y...), features: fs}
		f.mu.Lock()
		f.rows += len(y)
		f.fitMS = append(f.fitMS, ms(d))
		if len(f.captured) < keepFits {
			f.captured = append(f.captured, in)
		} else {
			f.captured[f.next%keepFits] = in
			f.next++
		}
		f.last = m
		f.mu.Unlock()
	}
	return forestModel(m, err)
}

// forestModel keeps a failed fit's nil forest from becoming a non-nil
// core.Model.
func forestModel(m *forest.Forest, err error) (core.Model, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// report adds the forest and tree fit metrics.
func (f *fitRecorder) report(out metricSet) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.fitMS)
	out["forest.fit_calls"] = float64(n)
	out["forest.fit_ms_p50"] = median(f.fitMS)
	if n > 0 {
		out["forest.fit_rows_mean"] = float64(f.rows) / float64(n)
	}
	out["tree.fit_us_p50"] = treeFitReplay(f.captured, f.cfg.Tree)
}

// treeFitReplay fits one tree on each captured training set three
// times and returns the median fit time in µs.
func treeFitReplay(sets []fitInput, cfg tree.Config) float64 {
	var us []float64
	for i, s := range sets {
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := tree.Fit(s.X, s.y, s.features, cfg, rng.New(uint64(i*3+rep))); err != nil {
				continue
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	return median(us)
}

// scoreShard is the candidate count of one scoring shard (the pool
// package's default).
const scoreShard = 1024

// scoreReplay times forest.ScoreBatch on one shard of candidates drawn
// from sp and returns the median ns per candidate.
func scoreReplay(f *forest.Forest, sp *space.Space, seed uint64) float64 {
	if f == nil {
		return 0
	}
	X := sp.EncodeAll(sp.SampleConfigs(rng.New(seed), scoreShard))
	mu, sigma := make([]float64, len(X)), make([]float64, len(X))
	var ns []float64
	for rep := 0; rep < 15; rep++ {
		start := time.Now()
		f.ScoreBatch(X, mu, sigma)
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(len(X)))
	}
	return median(ns)
}

// evalReplay times the problem's evaluator on uniformly drawn
// configurations and returns the median µs per label.
func evalReplay(ctx context.Context, p bench.Problem, seed uint64) float64 {
	r := rng.New(seed)
	ev := bench.Evaluator(p, r.Split())
	cfgs := p.Space().SampleConfigs(r, 200)
	var us []float64
	for _, c := range cfgs {
		start := time.Now()
		if _, err := ev.Evaluate(ctx, c); err != nil {
			continue
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us)
}

// engineShares adds the core telemetry sums and each one's share of
// the engine's time.
func engineShares(st core.RunStats, out metricSet) {
	fit, sel, ev := st.FitTime.Seconds(), st.SelectTime.Seconds(), st.EvalTime.Seconds()
	out["core.fit_s"], out["core.select_s"], out["core.eval_s"] = fit, sel, ev
	if total := fit + sel + ev; total > 0 {
		out["share.fit"], out["share.select"], out["share.eval"] = fit/total, sel/total, ev/total
	}
}

// addRunStats sums b into a.
func addRunStats(a *core.RunStats, b core.RunStats) {
	a.FitTime += b.FitTime
	a.SelectTime += b.SelectTime
	a.EvalTime += b.EvalTime
	a.Events += b.Events
}

// scanned is the number of candidates one scoring pass per loop
// iteration touches over a session: before iteration k the pool holds
// poolSize minus the labels taken so far.
func scanned(poolSize, nInit, nBatch, nMax int) int {
	total := 0
	for n := nInit; n < nMax; n += nBatch {
		total += poolSize - n
	}
	return total
}
