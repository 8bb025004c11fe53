package core

import (
	"math"
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
)

// selectionContractCases is the shared fixture the sort-based oracle
// helpers and the streaming reducers run against: both must produce
// identical output on every row, including the edge cases
// that used to panic the helpers (k beyond len, negative k) and the
// NaN/tie/duplicate corners.
var selectionContractCases = []struct {
	name   string
	scores []float64
	vecIDs []int // feature-vector identity per candidate (for distinct mode)
	ks     []int
}{
	{
		name:   "plain-ties",
		scores: []float64{3, 1, 3, 2, 3},
		vecIDs: []int{0, 1, 2, 3, 4},
		ks:     []int{0, 1, 3, 4, 5, 8, -2},
	},
	{
		name:   "nans-and-infs",
		scores: []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2, math.NaN(), 2},
		vecIDs: []int{0, 1, 2, 3, 4, 5},
		ks:     []int{0, 1, 5, 6, 11, -1},
	},
	{
		name:   "all-nan",
		scores: []float64{math.NaN(), math.NaN(), math.NaN()},
		vecIDs: []int{0, 1, 2},
		ks:     []int{0, 1, 2, 3, 7},
	},
	{
		name:   "dups-exhaust-distinct",
		scores: []float64{9, 8, 7, 6, 5},
		vecIDs: []int{0, 0, 0, 1, 1}, // only 2 distinct vectors
		ks:     []int{1, 2, 3, 4, 5, 9},
	},
	{
		name:   "dup-best-swaps-rep",
		scores: []float64{1, 9, 9, 1, 4},
		vecIDs: []int{0, 0, 1, 1, 0},
		ks:     []int{2, 3, 5},
	},
	{
		name:   "empty",
		scores: nil,
		vecIDs: nil,
		ks:     []int{0, 1, 4, -3},
	},
}

func contractCandidates(scores []float64, vecIDs []int) *Candidates {
	X := make([][]float64, len(scores))
	for i := range X {
		X[i] = []float64{float64(vecIDs[i]), 1.5}
	}
	return &Candidates{X: X, Mu: scores, Sigma: scores}
}

// TestSelectionContractSharedTable runs the sort-based oracle helpers
// and the streaming reducers against the same table and requires
// identical output: the reducers implement the oracle's contract.
func TestSelectionContractSharedTable(t *testing.T) {
	for _, tc := range selectionContractCases {
		t.Run(tc.name, func(t *testing.T) {
			c := contractCandidates(tc.scores, tc.vecIDs)
			for _, k := range tc.ks {
				memTop := topKByScore(tc.scores, k)
				memBot := bottomKByScore(tc.scores, k)
				memDis := topKDistinctByScore(tc.scores, c, k)

				top, bot, dis := pool.NewTopK(k), pool.NewBottomK(k), pool.NewTopKDistinct(k)
				for i, s := range tc.scores {
					top.Push(i, s, nil)
					bot.Push(i, s, nil)
					dis.Push(i, s, c.XAt(i))
				}
				if got := top.Result(); !sameIdx(got, memTop) {
					t.Fatalf("k=%d top: stream %v, memory %v", k, got, memTop)
				}
				if got := bot.Result(); !sameIdx(got, memBot) {
					t.Fatalf("k=%d bottom: stream %v, memory %v", k, got, memBot)
				}
				if got := dis.Result(); !sameIdx(got, memDis) {
					t.Fatalf("k=%d distinct: stream %v, memory %v", k, got, memDis)
				}
			}
		})
	}
}

// TestSelectionHelpersClampK pins the bugfix directly: out-of-range k
// must clamp, not panic (the helpers used to slice idx[:k] unchecked).
func TestSelectionHelpersClampK(t *testing.T) {
	scores := []float64{2, 1, 3}
	c := contractCandidates(scores, []int{0, 1, 2})
	for _, k := range []int{-5, 4, 100} {
		want := 0
		if k > 0 {
			want = len(scores)
		}
		if got := topKByScore(scores, k); len(got) != want {
			t.Fatalf("topKByScore k=%d returned %d indices, want %d", k, len(got), want)
		}
		if got := bottomKByScore(scores, k); len(got) != want {
			t.Fatalf("bottomKByScore k=%d returned %d indices, want %d", k, len(got), want)
		}
		if got := topKDistinctByScore(scores, c, k); len(got) != want {
			t.Fatalf("topKDistinctByScore k=%d returned %d indices, want %d", k, len(got), want)
		}
	}
}

func sameIdx(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// streamContractCandidates builds a randomized candidate set with
// duplicate vectors, NaN beliefs and heavy μ ties.
func streamContractCandidates(r *rng.RNG, n int) *Candidates {
	X := make([][]float64, n)
	mu := make([]float64, n)
	sigma := make([]float64, n)
	kinds := n/3 + 1
	for i := 0; i < n; i++ {
		X[i] = []float64{float64(r.Intn(kinds)), float64(r.Intn(2))}
		switch r.Intn(8) {
		case 0:
			mu[i] = math.NaN()
		case 1:
			mu[i] = float64(r.Intn(3)) // ties
		default:
			mu[i] = r.Float64()*10 + 0.1
		}
		switch r.Intn(8) {
		case 0:
			sigma[i] = math.NaN()
		default:
			sigma[i] = r.Float64() * 2
		}
	}
	best := math.Inf(1)
	for _, m := range mu {
		if m < best {
			best = m
		}
	}
	return &Candidates{X: X, Mu: mu, Sigma: sigma, BestY: best}
}

// TestSelectStreamMatchesSelect: for every built-in strategy, the
// streaming selection must return exactly the indices the sort-based
// oracle returns and leave the generator at the same stream position.
func TestSelectStreamMatchesSelect(t *testing.T) {
	strategies := []oracleStrategy{
		PWU{Alpha: 0.05}, PBUS{}, BRS{}, BestPerf{}, MaxU{}, Random{}, CV{}, EI{},
	}
	gen := rng.New(424242)
	for trial := 0; trial < 30; trial++ {
		n := 1 + gen.Intn(50)
		c := streamContractCandidates(gen, n)
		for _, strat := range strategies {
			for _, nBatch := range []int{0, 1, 3, n, n + 2, -1} {
				seed := gen.Uint64()
				memR, strR := rng.New(seed), rng.New(seed)
				c.Rand = memR
				want := strat.Select(c, nBatch)
				got, err := strat.SelectStream(&memStream{c: c, r: strR}, nBatch)
				if err != nil {
					t.Fatalf("%s: SelectStream: %v", strat.Name(), err)
				}
				if !sameIdx(got, want) {
					t.Fatalf("%s (n=%d, nBatch=%d): stream %v, memory %v\nmu=%v\nsigma=%v",
						strat.Name(), n, nBatch, got, want, c.Mu, c.Sigma)
				}
				if memR.Uint64() != strR.Uint64() {
					t.Fatalf("%s (n=%d, nBatch=%d): generator stream positions diverged", strat.Name(), n, nBatch)
				}
			}
		}
	}
}
