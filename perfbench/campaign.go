package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/rng"
)

// campaignKernels are the SPAPT kernels of the campaign-fit grid.
var campaignKernels = []string{"atax", "mvt"}

// campaignWorkers is the campaign's worker pool: one, so the engine's
// fits run one after another and the process's CPU time between two of
// them is one iteration's.
const campaignWorkers = 1

// campaignFit runs the paper's protocol (Figs. 2-3): every strategy on
// a few SPAPT kernels at experiment.Quick(), as one closed batch job
// drained by experiment.RunCampaign on one worker. A unit is one whole
// campaign.
type campaignFit struct {
	seed  uint64
	items []experiment.CampaignItem
	fits  *fitRecorder
	clock iterClock
	sc    experiment.Scale

	stats core.RunStats
	sched campaign.Stats
	cache campaign.CacheStats
	cells int
}

func (w *campaignFit) setup(ctx context.Context, o runOptions) error {
	w.seed = o.seed
	w.sc = experiment.Quick()
	w.fits = newFitRecorder(w.sc.Forest, nil)
	w.fits.before = w.clock.fit
	w.sc.Fitter = w.fits.fit
	for _, name := range campaignKernels {
		p, err := bench.ByName(name)
		if err != nil {
			return err
		}
		w.items = append(w.items, experiment.CampaignItem{Problem: p, Scale: w.sc})
	}
	// Warm-up: one repetition of PWU on the first kernel.
	warm := w.sc
	warm.Reps = 1
	_, err := experiment.RunCampaign(ctx, experiment.Campaign{
		Items:      []experiment.CampaignItem{{Problem: w.items[0].Problem, Scale: warm}},
		Strategies: []string{"PWU"},
		Seed:       rng.Mix(o.seed, math.MaxUint32),
		Workers:    campaignWorkers,
	})
	return err
}

// iterClock turns the engine's fits into iterations. A cell refits after
// every labelled batch, so from the start of one fit to the start of
// the next on a grown training set is one whole iteration of that cell:
// fit, select, label and bookkeeping. A fit on a smaller set starts a
// new cell.
type iterClock struct {
	ph   *phase
	rows int
	sw   stopwatch
}

func (c *iterClock) fit(rows int) {
	if c.ph != nil && c.rows > 0 && rows > c.rows {
		c.ph.addIter(c.sw.elapsed())
	}
	c.rows, c.sw = rows, startWatch()
}

func (w *campaignFit) close() {}

func (w *campaignFit) run(ctx context.Context, d time.Duration, tr *tracer, ph *phase) error {
	w.fits.tr = tr
	w.clock.ph = ph
	defer func() { w.clock.ph = nil }()
	w.stats, w.sched, w.cache, w.cells = core.RunStats{}, campaign.Stats{}, campaign.CacheStats{}, 0
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < d; i++ {
		camp := experiment.Campaign{
			Items:      w.items,
			Strategies: core.StrategyNames(),
			Seed:       rng.Mix(w.seed, uint64(i)),
			Workers:    campaignWorkers,
		}
		id := tr.begin(0, "campaign", "experiment.RunCampaign")
		w.fits.parent.Store(id)
		res, err := experiment.RunCampaign(ctx, camp)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("campaign %d: %w", i, err)
		}
		cells, err := checkCampaign(res, camp, w.sc)
		ph.op(err == nil)
		if err != nil {
			ph.fail("campaign %d: %v", i, err)
			continue
		}
		w.cells += cells
		ph.accept(cells * w.sc.NMax)
		var rmse []float64
		for _, name := range campaignKernels {
			for _, cs := range res.Curves[name] {
				addRunStats(&w.stats, cs.Stats)
				rmse = append(rmse, cs.RMSE[len(cs.RMSE)-1])
			}
		}
		w.sched.Add(res.Scheduler)
		w.cache.Add(res.Datasets)
		ph.unit(i, campaignDigest(res, campaignKernels), mean(rmse))
	}
	ph.finish()
	return nil
}

// checkCampaign verifies a campaign's output: no quarantined cell, and
// every (kernel, strategy) curve set present with all repetitions and
// every checkpoint up to NMax. It returns the number of cells.
func checkCampaign(res *experiment.CampaignResult, camp experiment.Campaign, sc experiment.Scale) (int, error) {
	if len(res.Quarantined) > 0 {
		q := res.Quarantined[0]
		return 0, fmt.Errorf("%d quarantined cells, first %s/%s rep %d", len(res.Quarantined), q.Problem, q.Strategy, q.Rep)
	}
	cells := 0
	for _, it := range camp.Items {
		sets := res.Curves[it.Problem.Name()]
		if len(sets) != len(camp.Strategies) {
			return 0, fmt.Errorf("%s: %d curve sets, want %d", it.Problem.Name(), len(sets), len(camp.Strategies))
		}
		for k, cs := range sets {
			switch {
			case cs == nil:
				return 0, fmt.Errorf("%s/%s: no curve set", it.Problem.Name(), camp.Strategies[k])
			case cs.Reps != sc.Reps:
				return 0, fmt.Errorf("%s/%s: %d reps, want %d", cs.Benchmark, cs.Strategy, cs.Reps, sc.Reps)
			case len(cs.Samples) == 0 || cs.Samples[0] != sc.NInit || cs.Samples[len(cs.Samples)-1] != sc.NMax:
				return 0, fmt.Errorf("%s/%s: checkpoints %v do not span %d..%d", cs.Benchmark, cs.Strategy, cs.Samples, sc.NInit, sc.NMax)
			case len(cs.RMSE) != len(cs.Samples) || len(cs.CC) != len(cs.Samples):
				return 0, fmt.Errorf("%s/%s: %d RMSE and %d CC values for %d checkpoints", cs.Benchmark, cs.Strategy, len(cs.RMSE), len(cs.CC), len(cs.Samples))
			}
			for _, v := range cs.RMSE {
				if math.IsNaN(v) || v <= 0 {
					return 0, fmt.Errorf("%s/%s: RMSE %v", cs.Benchmark, cs.Strategy, v)
				}
			}
			cells += cs.Reps
		}
	}
	return cells, nil
}

// campaignDigest hashes every curve of the campaign in kernel and
// strategy order.
func campaignDigest(res *experiment.CampaignResult, kernels []string) uint64 {
	h := fnv.New64a()
	for _, name := range kernels {
		for _, cs := range res.Curves[name] {
			fmt.Fprintf(h, "%s/%s:", cs.Benchmark, cs.Strategy)
			for i := range cs.Samples {
				fmt.Fprintf(h, "%d %x %x;", cs.Samples[i], math.Float64bits(cs.RMSE[i]), math.Float64bits(cs.CC[i]))
			}
		}
	}
	return h.Sum64()
}

func (w *campaignFit) layers(ctx context.Context, ph *phase, out metricSet) error {
	engineShares(w.stats, out)
	w.fits.report(out)
	per := scanned(w.sc.PoolSize, w.sc.NInit, w.sc.NBatch, w.sc.NMax)
	out["pool.candidates_scored"] = float64(per * w.cells)
	if per > 0 && w.cells > 0 {
		out["pool.scan_ns_per_candidate"] = float64(w.stats.SelectTime.Nanoseconds()) / float64(per*w.cells)
	}
	p := w.items[0].Problem
	out["forest.score_ns_per_candidate"] = scoreReplay(w.fits.last, p.Space(), w.seed)
	out["bench.eval_us"] = evalReplay(ctx, p, w.seed)
	out["campaign.utilization"] = w.sched.Utilization
	out["campaign.steals"] = float64(w.sched.Steals)
	out["campaign.busy_s"] = w.sched.Busy.Seconds()
	out["campaign.dataset_builds"] = float64(w.cache.Builds)
	if n := w.cache.Builds + w.cache.Hits; n > 0 {
		out["campaign.dataset_hit_ratio"] = float64(w.cache.Hits) / float64(n)
	}
	return nil
}
