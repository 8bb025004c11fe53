package core

import (
	"math"
	"sort"

	"repro/internal/pool"
	"repro/internal/rng"
)

// The sort-based selection oracle. Before the engine scored every pool
// through the streamed scan, strategies selected from a materialized
// (X, Mu, Sigma) view with stable sorts; those helpers and per-strategy
// Select methods live on here as the reference the bounded streaming
// reducers are compared against (TestSelectionContractSharedTable,
// TestSelectStreamMatchesSelect).

// Candidates is a materialized view of the remaining pool: feature
// vectors with the model's beliefs about them. Indices into these slices
// are "candidate indices" — the ordinals a PoolStream hands out.
type Candidates struct {
	X         [][]float64
	Mu, Sigma []float64

	// BestY is the best (smallest) observed training label so far, the
	// incumbent that acquisition functions like EI improve upon.
	BestY float64

	Rand *rng.RNG
}

// Len returns the number of candidates.
func (c *Candidates) Len() int { return len(c.Mu) }

// XAt returns candidate i's feature vector.
func (c *Candidates) XAt(i int) []float64 { return c.X[i] }

// clampMem bounds nBatch by the candidate count. A negative request
// clamps to 0 (an empty selection) instead of reaching the selection
// helpers, where a negative slice bound would panic.
func clampMem(c *Candidates, nBatch int) int {
	if nBatch > c.Len() {
		nBatch = c.Len()
	}
	if nBatch < 0 {
		nBatch = 0
	}
	return nBatch
}

// clampK bounds a selection size into [0, n]. The sort-based helpers
// historically sliced idx[:k] unchecked, so k > len(scores) or k < 0
// panicked; the streaming reducers naturally return min(k, n) entries,
// and the helpers must agree with them on every input.
func clampK(k, n int) int {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	return k
}

// sinkNaNs returns scores with every NaN replaced by sink (−Inf for
// top-k selection, +Inf for bottom-k). A NaN fed to sort's comparator
// makes it non-transitive and the resulting order undefined — and NaN
// scores do happen: a degenerate model can produce σ = NaN, and PWU
// divides by a clamped μ. The input is never mutated; a copy is made
// only when a NaN is actually present.
func sinkNaNs(scores []float64, sink float64) []float64 {
	for i, v := range scores {
		if math.IsNaN(v) {
			cp := make([]float64, len(scores))
			copy(cp, scores)
			for j := i; j < len(cp); j++ {
				if math.IsNaN(cp[j]) {
					cp[j] = sink
				}
			}
			return cp
		}
	}
	return scores
}

// topKByScore returns the indices of the k largest scores (ties broken by
// lower index, deterministically; NaN scores rank last). k is clamped
// into [0, len(scores)].
func topKByScore(scores []float64, k int) []int {
	k = clampK(k, len(scores))
	scores = sinkNaNs(scores, math.Inf(-1))
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx[:k]
}

// xKey builds a hashable key for a feature vector, used to recognise
// pool duplicates during batch selection. It delegates to the streaming
// reducers' key so the two selection paths can never disagree on what
// counts as a duplicate.
func xKey(x []float64) string {
	return pool.VectorKey(x)
}

// topKDistinctByScore returns the k highest-scoring candidate indices
// while avoiding duplicate feature vectors within the batch. On the
// small application spaces (kripke has 2304 points, hypre 3150) the
// paper's sampled pool necessarily contains duplicates; with batch sizes
// above 1 a purely greedy top-k would spend the whole batch on copies of
// one configuration whose model belief cannot change until the refit.
// Duplicates are only used to fill the batch when distinct candidates
// run out. With nBatch = 1 (the paper's setting) this is identical to
// topKByScore. NaN scores rank last. k is clamped into [0, len(scores)].
func topKDistinctByScore(scores []float64, c *Candidates, k int) []int {
	k = clampK(k, len(scores))
	scores = sinkNaNs(scores, math.Inf(-1))
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k <= 1 {
		return idx[:k]
	}
	out := make([]int, 0, k)
	seen := make(map[string]bool, k)
	var dups []int
	for _, i := range idx {
		if len(out) == k {
			return out
		}
		key := xKey(c.XAt(i))
		if seen[key] {
			dups = append(dups, i)
			continue
		}
		seen[key] = true
		out = append(out, i)
	}
	for _, i := range dups {
		if len(out) == k {
			break
		}
		out = append(out, i)
	}
	return out
}

// bottomKByScore returns the indices of the k smallest scores; NaN
// scores rank last. k is clamped into [0, len(scores)].
func bottomKByScore(scores []float64, k int) []int {
	k = clampK(k, len(scores))
	scores = sinkNaNs(scores, math.Inf(1))
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	return idx[:k]
}

// oracleStrategy is a Strategy with its sort-based oracle.
type oracleStrategy interface {
	Strategy
	Select(c *Candidates, nBatch int) []int
}

// Select is the sort-based oracle of PWU.SelectStream.
func (p PWU) Select(c *Candidates, nBatch int) []int {
	nBatch = clampMem(c, nBatch)
	scores := make([]float64, c.Len())
	for i := range scores {
		scores[i] = p.Score(c.Mu[i], c.Sigma[i])
	}
	return topKDistinctByScore(scores, c, nBatch)
}

// Select is the sort-based oracle of SelectStream.
func (p PBUS) Select(c *Candidates, nBatch int) []int {
	nBatch = clampMem(c, nBatch)
	frac := p.PerfFrac
	if frac <= 0 {
		frac = 0.10
	}
	k := int(math.Ceil(float64(c.Len()) * frac))
	if k < nBatch {
		k = nBatch
	}
	if k > c.Len() {
		k = c.Len()
	}
	// Stage 1: top-k by performance (smallest predicted time).
	cand := bottomKByScore(c.Mu, k)
	// Stage 2: most uncertain within the candidate set, de-duplicated
	// across the batch.
	scores := make([]float64, c.Len())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	for _, i := range cand {
		scores[i] = c.Sigma[i]
	}
	return topKDistinctByScore(scores, c, nBatch)
}

// Select is the sort-based oracle of SelectStream.
func (b BRS) Select(c *Candidates, nBatch int) []int {
	nBatch = clampMem(c, nBatch)
	frac := b.TopFrac
	if frac <= 0 {
		frac = 0.10
	}
	k := int(math.Ceil(float64(c.Len()) * frac))
	if k < nBatch {
		k = nBatch
	}
	if k > c.Len() {
		k = c.Len()
	}
	cand := bottomKByScore(c.Mu, k)
	pick := c.Rand.Sample(len(cand), nBatch)
	out := make([]int, nBatch)
	for i, j := range pick {
		out[i] = cand[j]
	}
	return out
}

// Select is the sort-based oracle of SelectStream.
func (BestPerf) Select(c *Candidates, nBatch int) []int {
	nBatch = clampMem(c, nBatch)
	scores := make([]float64, c.Len())
	for i := range scores {
		scores[i] = -c.Mu[i]
	}
	return topKDistinctByScore(scores, c, nBatch)
}

// Select is the sort-based oracle of SelectStream.
func (MaxU) Select(c *Candidates, nBatch int) []int {
	return topKDistinctByScore(c.Sigma, c, clampMem(c, nBatch))
}

// Select is the sort-based oracle of SelectStream.
func (Random) Select(c *Candidates, nBatch int) []int {
	return c.Rand.Sample(c.Len(), clampMem(c, nBatch))
}

// Select is the sort-based oracle of SelectStream.
func (e EI) Select(c *Candidates, nBatch int) []int {
	nBatch = clampMem(c, nBatch)
	scores := make([]float64, c.Len())
	for i := range scores {
		scores[i] = e.Score(c.Mu[i], c.Sigma[i], c.BestY)
	}
	return topKDistinctByScore(scores, c, nBatch)
}

// Select is the sort-based oracle of SelectStream.
func (CV) Select(c *Candidates, nBatch int) []int {
	return PWU{Alpha: 0}.Select(c, nBatch)
}

// memStream adapts a Candidates view to the PoolStream interface, so
// SelectStream can run on hand-built beliefs.
type memStream struct {
	c *Candidates
	r *rng.RNG
}

func (m *memStream) Len() int       { return m.c.Len() }
func (m *memStream) BestY() float64 { return m.c.BestY }
func (m *memStream) Rand() *rng.RNG { return m.r }
func (m *memStream) Scan(consume func(ord int, x []float64, mu, sigma float64)) error {
	for i := 0; i < m.c.Len(); i++ {
		consume(i, m.c.XAt(i), m.c.Mu[i], m.c.Sigma[i])
	}
	return nil
}

// pick runs s's SelectStream over c (drawing from c.Rand) and panics on
// a scan error, which memStream never returns.
func pick(s Strategy, c *Candidates, nBatch int) []int {
	sel, err := s.SelectStream(&memStream{c: c, r: c.Rand}, nBatch)
	if err != nil {
		panic(err)
	}
	return sel
}
