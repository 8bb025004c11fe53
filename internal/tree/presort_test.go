package tree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// nodesEqual compares two trees bit-for-bit: structure, split fields,
// and every leaf statistic (floats by exact bits, not tolerance).
func nodesEqual(a, b *node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.isLeaf() != b.isLeaf() {
		return false
	}
	if math.Float64bits(a.mean) != math.Float64bits(b.mean) ||
		math.Float64bits(a.variance) != math.Float64bits(b.variance) ||
		a.count != b.count {
		return false
	}
	if len(a.targets) != len(b.targets) {
		return false
	}
	for i := range a.targets {
		if math.Float64bits(a.targets[i]) != math.Float64bits(b.targets[i]) {
			return false
		}
	}
	if a.isLeaf() {
		return true
	}
	if a.feature != b.feature ||
		math.Float64bits(a.threshold) != math.Float64bits(b.threshold) {
		return false
	}
	if len(a.catLeft) != len(b.catLeft) {
		return false
	}
	for i := range a.catLeft {
		if a.catLeft[i] != b.catLeft[i] {
			return false
		}
	}
	return nodesEqual(a.left, b.left) && nodesEqual(a.right, b.right)
}

// mixedSpace draws a random feature schema: numeric and categorical
// columns in random positions, with numeric values quantised to a random
// number of levels so duplicate values (and whole duplicate rows) occur.
func mixedSpace(r *rng.RNG, n, d int) (X [][]float64, y []float64, fs []space.Feature) {
	fs = make([]space.Feature, d)
	levels := make([]int, d)
	for j := range fs {
		switch r.Intn(3) {
		case 0:
			fs[j] = space.Feature{Name: "c", Kind: space.FeatCategorical, NumCategories: 2 + r.Intn(6)}
		default:
			fs[j] = space.Feature{Name: "x", Kind: space.FeatNumeric}
			levels[j] = 2 + r.Intn(12) // coarse grid → many ties
		}
	}
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j, f := range fs {
			if f.Kind == space.FeatCategorical {
				row[j] = float64(r.Intn(f.NumCategories))
			} else {
				row[j] = float64(r.Intn(levels[j])) / float64(levels[j])
			}
		}
		X[i] = row
		y[i] = 3*row[0] + row[d-1]*row[d/2] + 0.1*r.Norm()
	}
	return X, y, fs
}

// fitBoth runs the presorted and reference builders on identical inputs
// with identically seeded generators and checks bit-identical trees plus
// identical RNG stream consumption (the two generators must produce the
// same next value after the fits).
func fitBoth(t *testing.T, X [][]float64, y []float64, fs []space.Feature, cfg Config, seed uint64, ws *Workspace) {
	t.Helper()
	var r1, r2 *rng.RNG
	if seed != 0 {
		r1, r2 = rng.New(seed), rng.New(seed)
	}
	got, err1 := FitWorkspace(X, y, fs, cfg, r1, ws)
	want, err2 := FitReference(X, y, fs, cfg, r2)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("error mismatch: presorted=%v reference=%v", err1, err2)
	}
	if err1 != nil {
		return
	}
	if !nodesEqual(got.root, want.root) {
		t.Fatalf("trees differ (n=%d d=%d cfg=%+v seed=%d)", len(X), len(fs), cfg, seed)
	}
	if r1 != nil && r1.Uint64() != r2.Uint64() {
		t.Fatalf("RNG streams diverged (cfg=%+v seed=%d)", cfg, seed)
	}
}

// TestBuilderEquivalenceProperty is the presorted engine's contract: on
// randomized mixed spaces and configurations, both builders must emit
// bit-identical trees while consuming identical RNG streams. The shared
// workspace across iterations also exercises buffer reuse between fits
// of different shapes.
func TestBuilderEquivalenceProperty(t *testing.T) {
	ws := NewWorkspace()
	for seed := uint64(1); seed <= 25; seed++ {
		r := rng.New(seed * 1000003)
		n := 30 + r.Intn(250)
		d := 1 + r.Intn(8)
		X, y, fs := mixedSpace(r, n, d)
		cfg := Config{
			MaxDepth:       r.Intn(8), // 0 = unlimited
			MinSamplesLeaf: 1 + r.Intn(5),
			KeepTargets:    r.Bool(0.5),
		}
		if r.Bool(0.3) {
			cfg.MinSamplesSplit = 2 + r.Intn(10)
		}
		if r.Bool(0.2) {
			cfg.MinImpurityDecrease = r.Float64() * 0.1
		}
		var seedForFit uint64
		if r.Bool(0.5) && d > 1 {
			cfg.MaxFeatures = 1 + r.Intn(d) // random subspace → RNG consumed per node
			seedForFit = seed*7 + 1
		}
		fitBoth(t, X, y, fs, cfg, seedForFit, ws)
	}
}

// TestBuilderEquivalenceAllCategorical pins the categorical-only path
// (no presorted columns at all).
func TestBuilderEquivalenceAllCategorical(t *testing.T) {
	r := rng.New(7)
	fs := []space.Feature{
		{Name: "a", Kind: space.FeatCategorical, NumCategories: 5},
		{Name: "b", Kind: space.FeatCategorical, NumCategories: 3},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 8},
	}
	n := 180
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(r.Intn(5)), float64(r.Intn(3)), float64(r.Intn(8))}
		y[i] = X[i][0]*2 - X[i][1] + 0.2*r.Norm()
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 2, MinSamplesLeaf: 3}, 11, nil)
	fitBoth(t, X, y, fs, Config{KeepTargets: true, MaxDepth: 3}, 0, nil)
}

// TestBuilderEquivalenceConstantFeatures pins spaces where every feature
// is constant (the tree must be a single leaf) and where constants mix
// with one informative column under a subspace quota.
func TestBuilderEquivalenceConstantFeatures(t *testing.T) {
	n := 60
	fs := []space.Feature{
		{Name: "k1", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 4},
		{Name: "k2", Kind: space.FeatNumeric},
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{3.5, 2, -1}
		y[i] = float64(i % 7)
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1}, 13, nil)

	// One informative column among constants: mtry=1 must keep skipping
	// the constants without burning the quota, in both builders.
	for i := range X {
		X[i] = []float64{3.5, 2, float64(i)}
	}
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1}, 17, nil)
}

// TestBuilderEquivalenceDuplicateX pins heavy duplicate-value columns:
// repeated configs with different noisy targets, where split positions
// are only legal between distinct values and tied-value prefix sums must
// accumulate in the same order in both builders.
func TestBuilderEquivalenceDuplicateX(t *testing.T) {
	r := rng.New(19)
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "z", Kind: space.FeatNumeric},
	}
	n := 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(r.Intn(3)), float64(r.Intn(2))} // 3x2 grid, ~33 copies per cell
		y[i] = 5*X[i][0] + X[i][1] + r.Norm()
	}
	fitBoth(t, X, y, fs, Config{}, 0, nil)
	fitBoth(t, X, y, fs, Config{KeepTargets: true}, 0, nil)
	fitBoth(t, X, y, fs, Config{MaxFeatures: 1, MinSamplesLeaf: 4}, 23, nil)
}

// TestBuilderEquivalenceMinLeafBoundary pins the minLeaf pruning edge:
// leaf minima at and just beyond the sizes where any split is legal.
func TestBuilderEquivalenceMinLeafBoundary(t *testing.T) {
	r := rng.New(29)
	fs := []space.Feature{{Name: "x", Kind: space.FeatNumeric}}
	n := 20
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(i)}
		y[i] = float64(i) + 0.5*r.Norm()
	}
	for _, minLeaf := range []int{1, 9, 10, 11, n} {
		fitBoth(t, X, y, fs, Config{MinSamplesLeaf: minLeaf}, 0, nil)
	}
	for _, minSplit := range []int{2, n - 1, n, n + 1} {
		fitBoth(t, X, y, fs, Config{MinSamplesSplit: minSplit}, 0, nil)
	}
}

// TestWorkspaceReuseMatchesFresh fits a sequence of differently-shaped
// problems through one workspace and checks each against a fresh-
// workspace fit, guarding against stale-buffer leakage between fits.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := NewWorkspace()
	r := rng.New(31)
	shapes := []struct{ n, d int }{{300, 6}, {40, 2}, {150, 9}, {55, 1}, {220, 4}}
	for _, sh := range shapes {
		X, y, fs := mixedSpace(r, sh.n, sh.d)
		cfg := Config{MinSamplesLeaf: 2, KeepTargets: sh.d%2 == 0}
		reused, err := FitWorkspace(X, y, fs, cfg, nil, ws)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := FitWorkspace(X, y, fs, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(reused.root, fresh.root) {
			t.Fatalf("workspace reuse changed the tree at shape %+v", sh)
		}
	}
}

// TestPresortedMatchesExistingBehaviors spot-checks that the presorted
// engine (the default Fit) upholds the structural guarantees the rest of
// the suite asserts — binary consistency and prediction equality with
// the reference — on a larger mixed problem.
func TestPresortedMatchesExistingBehaviors(t *testing.T) {
	r := rng.New(37)
	X, y, fs := mixedSpace(r, 400, 7)
	tr, err := Fit(X, y, fs, Config{MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 2*tr.NumLeaves()-1 {
		t.Fatalf("nodes=%d leaves=%d not binary-consistent", tr.NumNodes(), tr.NumLeaves())
	}
	ref, err := FitReference(X, y, fs, Config{MinSamplesLeaf: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := X[r.Intn(len(X))]
		m1, v1, c1 := tr.PredictWithStats(probe)
		m2, v2, c2 := ref.PredictWithStats(probe)
		if m1 != m2 || v1 != v2 || c1 != c2 {
			t.Fatalf("prediction mismatch at probe %d", i)
		}
	}
}

// comparisonOrder is the presort the rank counting sort replaced: the
// bootstrap positions of column col sorted with a (value, position)
// comparator.
func comparisonOrder(col []float64, picks []int32) []int32 {
	ord := make([]int32, len(picks))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(a, c int) bool {
		ia, ic := ord[a], ord[c]
		va, vc := col[picks[ia]], col[picks[ic]]
		if va != vc {
			return va < vc
		}
		return ia < ic
	})
	return ord
}

// TestRankPresortMatchesComparisonSort pins the counting sort by
// forest-wide ranks to the comparison presort it replaced: for every
// column kind (heavy ties, mixed -0/+0, constant, all distinct) and
// every bootstrap kind (random draws, one row picked n times, identity
// picks as with DisableBagging), including n = 1, the orders must be
// equal position for position, and FitBootstrap must build the tree
// the reference builder builds on the materialised bootstrap, with the
// same RNG consumption.
func TestRankPresortMatchesComparisonSort(t *testing.T) {
	r := rng.New(53)
	negZero := math.Copysign(0, -1)
	columns := []struct {
		name string
		gen  func() float64
	}{
		{"ties", func() float64 { return float64(r.Intn(3)) }},
		{"signed-zero", func() float64 { return []float64{negZero, 0, -1, 1}[r.Intn(4)] }},
		{"constant", func() float64 { return 2.5 }},
		{"distinct", func() float64 { return r.Norm() }},
		{"grid", func() float64 { return float64(r.Intn(12)-6) / 4 }},
	}
	fs := make([]space.Feature, len(columns)+1)
	for f, c := range columns {
		fs[f] = space.Feature{Name: c.name, Kind: space.FeatNumeric}
	}
	fs[len(columns)] = space.Feature{Name: "cat", Kind: space.FeatCategorical, NumCategories: 3}

	ws := NewWorkspace()
	for _, n := range []int{1, 2, 7, 60, 257} {
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			row := make([]float64, len(fs))
			for f, c := range columns {
				row[f] = c.gen()
			}
			row[len(columns)] = float64(r.Intn(3))
			X[i], y[i] = row, row[0]-2*row[3]+row[4]*row[5]+0.1*r.Norm()
		}
		rk, err := RankColumns(X, fs)
		if err != nil {
			t.Fatal(err)
		}
		if rk.cols[len(columns)] != nil {
			t.Fatalf("n=%d: categorical column was ranked", n)
		}

		bootstrap := make([]int32, n)
		duplicate := make([]int32, n)
		identity := make([]int32, n)
		one := int32(r.Intn(n))
		for i := range bootstrap {
			bootstrap[i] = int32(r.Intn(n))
			duplicate[i] = one
			identity[i] = int32(i)
		}
		for _, pk := range []struct {
			name  string
			picks []int32
		}{{"bootstrap", bootstrap}, {"duplicate", duplicate}, {"identity", identity}} {
			for f, c := range columns {
				col := make([]float64, n)
				for i := range X {
					col[i] = X[i][f]
				}
				want := comparisonOrder(col, pk.picks)
				got := make([]int32, n)
				countingOrder(got, rk.cols[f], pk.picks, make([]int32, rk.distinct[f]))
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("n=%d %s picks, %s column: order[%d]=%d, comparison sort has %d",
							n, pk.name, c.name, k, got[k], want[k])
					}
				}
			}

			bx := make([][]float64, n)
			by := make([]float64, n)
			for i, p := range pk.picks {
				bx[i], by[i] = X[p], y[p]
			}
			cfg := Config{MaxFeatures: 2, KeepTargets: n%2 == 1}
			r1, r2 := rng.New(uint64(n)*7+1), rng.New(uint64(n)*7+1)
			got, err := FitBootstrap(rk, X, y, pk.picks, cfg, r1, ws)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FitReference(bx, by, fs, cfg, r2)
			if err != nil {
				t.Fatal(err)
			}
			if !nodesEqual(got.root, want.root) {
				t.Fatalf("n=%d %s picks: FitBootstrap and FitReference built different trees", n, pk.name)
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("n=%d %s picks: RNG streams diverged", n, pk.name)
			}
		}
	}
}

// TestRankColumnsDenseRanks pins the rank contract the counting sort
// relies on: ranks are dense (0..distinct-1 all used), equal values
// share a rank with -0 equal to +0, and rank order is value order.
func TestRankColumnsDenseRanks(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := []float64{3, negZero, 1, 0, 3, -2, 1}
	want := []int32{3, 1, 2, 1, 3, 0, 2}
	X := make([][]float64, len(col))
	for i, v := range col {
		X[i] = []float64{v}
	}
	rk, err := RankColumns(X, []space.Feature{{Name: "x", Kind: space.FeatNumeric}})
	if err != nil {
		t.Fatal(err)
	}
	if rk.distinct[0] != 4 {
		t.Fatalf("distinct = %d, want 4", rk.distinct[0])
	}
	for i := range want {
		if rk.cols[0][i] != want[i] {
			t.Fatalf("rank of row %d (%v) = %d, want %d", i, col[i], rk.cols[0][i], want[i])
		}
	}
}

// TestFitRejectsNaN pins NaN feature values as a validation error in
// every entry point: NaN breaks the strict weak order a comparison sort
// needs and has no rank, so no builder may accept it.
func TestFitRejectsNaN(t *testing.T) {
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 3},
	}
	y := []float64{1, 2, 3}
	for col := range fs {
		X := [][]float64{{0.5, 0}, {1.5, 1}, {2.5, 2}}
		X[1][col] = math.NaN()
		if _, err := Fit(X, y, fs, Config{}, nil); err == nil {
			t.Fatalf("Fit accepted NaN in column %d", col)
		}
		if _, err := FitReference(X, y, fs, Config{}, nil); err == nil {
			t.Fatalf("FitReference accepted NaN in column %d", col)
		}
		if _, err := RankColumns(X, fs); err == nil {
			t.Fatalf("RankColumns accepted NaN in column %d", col)
		}
	}
}

// TestFitBootstrapValidation pins FitBootstrap's own argument checks.
func TestFitBootstrapValidation(t *testing.T) {
	fs := []space.Feature{{Name: "x", Kind: space.FeatNumeric}}
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	rk, err := RankColumns(X, fs)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name  string
		rk    *Ranks
		X     [][]float64
		y     []float64
		picks []int32
	}{
		{"nil ranks", nil, X, y, []int32{0}},
		{"ranks of another matrix", rk, X[:2], y[:2], []int32{0}},
		{"short y", rk, X, y[:2], []int32{0}},
		{"no picks", rk, X, y, nil},
		{"pick out of range", rk, X, y, []int32{0, 3}},
		{"negative pick", rk, X, y, []int32{-1}},
	}
	for _, c := range bad {
		if _, err := FitBootstrap(c.rk, c.X, c.y, c.picks, Config{}, nil, nil); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	if _, err := FitBootstrap(rk, X, y, []int32{2, 2, 0}, Config{}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// naivePartition is the obvious stable partition the builder's
// partitions must reproduce: left-going entries (mask true) then
// right-going ones, each side in input order, built in fresh slices.
func naivePartition(ord []int32, vals []float64, mask []bool) ([]int32, []float64, int) {
	var lo, ro []int32
	var lv, rv []float64
	for k, i := range ord {
		if mask[i] {
			lo, lv = append(lo, i), append(lv, vals[k])
		} else {
			ro, rv = append(ro, i), append(rv, vals[k])
		}
	}
	return append(lo, ro...), append(lv, rv...), len(lo)
}

// TestStablePartitionMatchesNaive pins stablePartitionIdx and
// stablePartitionCol to the naive two-slice stable partition: random,
// all-left, all-right and alternating masks over segments of length 0,
// 1, 2 and 257, both as a whole buffer and as a segment in the middle
// of a longer one (whose surroundings must stay untouched). ord, vals,
// idx and the left count must all be identical.
func TestStablePartitionMatchesNaive(t *testing.T) {
	r := rng.New(71)
	masks := []struct {
		name string
		gen  func(i int) bool
	}{
		{"random", func(int) bool { return r.Intn(2) == 0 }},
		{"all-left", func(int) bool { return true }},
		{"all-right", func(int) bool { return false }},
		{"alternating", func(i int) bool { return i%2 == 0 }},
	}
	for _, n := range []int{0, 1, 2, 257} {
		for _, pad := range []int{0, 13} {
			for _, mk := range masks {
				total := n + 2*pad
				// Sample ids are a shuffle of 0..total-1, as in a column
				// order; the mask is indexed by sample id.
				ids := make([]int32, total)
				for k, p := range r.Perm(total) {
					ids[k] = int32(p)
				}
				vals := make([]float64, total)
				for k := range vals {
					vals[k] = r.Norm()
				}
				mask := make([]bool, total)
				for i := range mask {
					mask[i] = mk.gen(i)
				}
				seg := ids[pad : pad+n]
				wantOrd, wantVals, wantNL := naivePartition(seg, vals[pad:pad+n], mask)

				idx := append([]int32(nil), ids...)
				ord := append([]int32(nil), ids...)
				gotVals := append([]float64(nil), vals...)
				sIdx, sVals := make([]int32, total), make([]float64, total)

				nl := stablePartitionIdx(idx[pad:pad+n], mask, sIdx)
				stablePartitionCol(ord[pad:pad+n], gotVals[pad:pad+n], mask, sIdx, sVals)

				if nl != wantNL {
					t.Fatalf("n=%d pad=%d %s: left count %d, want %d", n, pad, mk.name, nl, wantNL)
				}
				for k := 0; k < total; k++ {
					wo, wv := ids[k], vals[k] // outside the segment: untouched
					if k >= pad && k < pad+n {
						wo, wv = wantOrd[k-pad], wantVals[k-pad]
					}
					if idx[k] != wo || ord[k] != wo {
						t.Fatalf("n=%d pad=%d %s: pos %d idx %d ord %d, want %d", n, pad, mk.name, k, idx[k], ord[k], wo)
					}
					if math.Float64bits(gotVals[k]) != math.Float64bits(wv) {
						t.Fatalf("n=%d pad=%d %s: pos %d val %v, want %v", n, pad, mk.name, k, gotVals[k], wv)
					}
				}
			}
		}
	}
}
