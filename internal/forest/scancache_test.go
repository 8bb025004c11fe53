package forest

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/space"
)

// scanFixture fits a forest on a mixed numeric/categorical space and
// returns it with a 300-candidate pool source over the same space.
func scanFixture(t *testing.T, trees int) (*Forest, *space.Space, []space.Config) {
	t.Helper()
	sp := space.MustNew(
		space.NumRange("a", 0, 15, 1),
		space.NumRange("b", 0, 9, 1),
		space.Cat("c", "x", "y", "z"),
	)
	train := sp.SampleConfigs(rng.New(20), 200)
	X := sp.EncodeAll(train)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = (x[0]-7)*(x[0]-7) + x[1]*x[1]/3 + x[0]*x[1]/5 + 1
	}
	f, err := Fit(X, y, sp.Features(), Config{NumTrees: trees}, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	return f, sp, sp.SampleConfigs(rng.New(21), 300)
}

// assertCachedScanMatchesBatch scans the pool through the cache, skipping
// the given globals, and checks every delivered (μ, σ) against
// PredictBatch bit for bit.
func assertCachedScanMatchesBatch(t *testing.T, f *Forest, sp *space.Space, cfgs []space.Config, cache *pool.ScanCache, skip []int) {
	t.Helper()
	var kept [][]float64
	si := 0
	for g, c := range cfgs {
		if si < len(skip) && skip[si] == g {
			si++
			continue
		}
		kept = append(kept, sp.Encode(c))
	}
	wantMu, wantSigma := f.PredictBatch(kept)
	seen := 0
	err := pool.Scan(pool.NewSlice(sp, cfgs), f, pool.ScanConfig{Shard: 64, Skip: skip, Cache: cache},
		func(ord int, _ []float64, mu, sigma float64) {
			seen++
			if mu != wantMu[ord] || sigma != wantSigma[ord] {
				t.Errorf("ordinal %d: cached scan (%v, %v), PredictBatch (%v, %v)", ord, mu, sigma, wantMu[ord], wantSigma[ord])
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(kept) {
		t.Fatalf("scan delivered %d candidates, want %d", seen, len(kept))
	}
}

// TestPredictPoolMatchesBatch predicts a pool through a cold cache with
// a skip set, then again warm, and checks both scans against
// PredictBatch bit for bit; the warm scan must re-walk no slot.
func TestPredictPoolMatchesBatch(t *testing.T) {
	f, sp, cfgs := scanFixture(t, 16)
	cache := pool.NewScanCache(0)
	skip := []int{0, 7, 13, 99, 150, 299}
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip)
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip)
	if st := cache.Stats(); st.Resets != 1 || st.StaleSlots != 0 || st.Scans != 2 {
		t.Fatalf("warm rescan: %+v, want one reset, no stale slots, two scans", st)
	}
}

// TestBindPoolIdempotent checks when a cache bound to a forest and a
// pool is kept and when it is rebuilt: rescanning the same pool with the
// same forest keeps the panels, a pool of another size rebuilds them,
// and so does a separately fitted forest of the same shape, whose
// generations alone cannot tell it apart.
func TestBindPoolIdempotent(t *testing.T) {
	f, sp, cfgs := scanFixture(t, 8)
	cache := pool.NewScanCache(0)
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, nil)
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, nil)
	if st := cache.Stats(); st.Resets != 1 || st.StaleSlots != 0 {
		t.Fatalf("rescanning the same pool: %+v, want the cache kept", st)
	}
	other := sp.SampleConfigs(rng.New(23), 100)
	assertCachedScanMatchesBatch(t, f, sp, other, cache, []int{50})
	if st := cache.Stats(); st.Resets != 2 || st.CachedRows != len(other) {
		t.Fatalf("scanning a different pool: %+v, want a rebuilt cache over %d rows", st, len(other))
	}
	g, _, _ := scanFixture(t, 8)
	assertCachedScanMatchesBatch(t, g, sp, other, cache, nil)
	if st := cache.Stats(); st.Resets != 3 || st.StaleSlots != 8 {
		t.Fatalf("scanning with another forest: %+v, want a rebuilt cache", st)
	}
}

// TestPredictPoolAfterUpdate exercises the generation bookkeeping the
// cross-scan cache relies on: a partial Update refreshes a quarter of
// the ensemble, and the next cached scan must re-walk exactly those
// slots and stay bit-identical to PredictBatch. The skip set only grows
// between scans, as the engine's taken set does.
func TestPredictPoolAfterUpdate(t *testing.T) {
	f, sp, cfgs := scanFixture(t, 16)
	cache := pool.NewScanCache(0)
	skip := []int{0, 7, 13, 99, 299}
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip[1:3])
	if st := cache.Stats(); st.StaleSlots != 16 || st.Resets != 1 {
		t.Fatalf("first scan: %+v, want every slot walked after one reset", st)
	}

	X := sp.EncodeAll(sp.SampleConfigs(rng.New(24), 250))
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = x[0] + x[1]
	}
	if err := f.Update(X, y, rng.New(25)); err != nil {
		t.Fatal(err)
	}
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip)
	if st := cache.Stats(); st.StaleSlots != 4 || st.Resets != 1 { // Update refreshes b/4 slots
		t.Fatalf("scan after update: %+v, want 4 stale slots and no reset", st)
	}
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip)
	if st := cache.Stats(); st.StaleSlots != 0 {
		t.Fatalf("scan without an update re-walked %d slots", st.StaleSlots)
	}
}

// TestUpdateRotationKeepsCacheConsistent cycles every ensemble slot via
// repeated updates, interleaving cached scans, and checks the cache
// never drifts from the ground-truth batch path.
func TestUpdateRotationKeepsCacheConsistent(t *testing.T) {
	f, sp, cfgs := scanFixture(t, 8)
	cache := pool.NewScanCache(0)
	skip := []int{3, 44, 150, 299}
	assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip[:2])
	orig := append([]uint64(nil), f.treeGen...)
	X := sp.EncodeAll(sp.SampleConfigs(rng.New(26), 250))
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = x[0]*x[1] + 2
	}
	for i := 0; i < 4; i++ {
		if err := f.Update(X, y, rng.New(uint64(27+i))); err != nil {
			t.Fatal(err)
		}
		assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip)
	}
	// 4 updates x 2 trees = every slot refreshed exactly once.
	for tr, g := range f.treeGen {
		if g != orig[tr]+1 {
			t.Fatalf("slot %d generation %d, want %d", tr, g, orig[tr]+1)
		}
	}
}

// TestScanCacheSkipShrinkMatchesBatch: a cached scan whose skip set
// drops rows the last committed scan skipped must still equal
// PredictBatch — those rows' panels were never walked for the committed
// generations, so the cache rescores every slot. Random grow, shrink
// and replace steps on the skip set, with partial updates in between,
// cover both the full and a partial (budget-limited) covered prefix.
func TestScanCacheSkipShrinkMatchesBatch(t *testing.T) {
	for _, budget := range []int64{0, 150 * 8 * 16} {
		f, sp, cfgs := scanFixture(t, 8)
		cache := pool.NewScanCache(budget)
		X := sp.EncodeAll(sp.SampleConfigs(rng.New(28), 250))
		y := make([]float64, len(X))
		for i, x := range X {
			y[i] = x[0] - x[1]*x[2]
		}

		// The shape that served stale panels: skip, update, re-admit.
		assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, []int{0, 7, 13, 99, 299})
		if err := f.Update(X, y, rng.New(29)); err != nil {
			t.Fatal(err)
		}
		assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, []int{7, 13})
		if st := cache.Stats(); st.SkipShrinks != 1 || st.StaleSlots != 8 {
			t.Fatalf("budget %d: re-admitting scan: %+v, want one shrink and every slot walked", budget, st)
		}

		r := rng.New(30)
		in := make([]bool, len(cfgs))
		in[7], in[13] = true, true
		shrinks := 1
		for step := 0; step < 40; step++ {
			before := append([]bool(nil), in...)
			switch r.Intn(3) {
			case 0: // grow
				for k := 1 + r.Intn(6); k > 0; k-- {
					in[r.Intn(len(in))] = true
				}
			case 1: // shrink
				for g := range in {
					if in[g] && r.Intn(3) == 0 {
						in[g] = false
					}
				}
			default: // replace
				for g := range in {
					in[g] = r.Intn(40) == 0
				}
			}
			var skip []int
			for g, s := range in {
				if s {
					skip = append(skip, g)
				}
			}
			for g := range in {
				if before[g] && !in[g] {
					shrinks++
					break
				}
			}
			if r.Intn(2) == 0 {
				if err := f.Update(X, y, rng.New(uint64(100+step))); err != nil {
					t.Fatal(err)
				}
			}
			assertCachedScanMatchesBatch(t, f, sp, cfgs, cache, skip)
		}
		if st := cache.Stats(); st.SkipShrinks != shrinks {
			t.Fatalf("budget %d: %d shrinking scans counted, want %d", budget, st.SkipShrinks, shrinks)
		}
	}
}
