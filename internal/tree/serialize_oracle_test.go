package tree

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

// dumpNode and reflectTreeJSON are the reflective encoder the direct
// AppendJSON replaced: build a nodeDump tree, then let encoding/json
// write it. They stay here as the byte-identity oracle.
func dumpNode(n *node) *nodeDump {
	d := &nodeDump{Mean: n.mean, Variance: n.variance, Count: n.count}
	if n.isLeaf() {
		d.Targets = n.targets
		return d
	}
	d.Feature = n.feature
	d.Threshold = n.threshold
	if n.catLeft != nil {
		d.NumCats = len(n.catLeft)
		for c, in := range n.catLeft {
			if in {
				d.CatLeft = append(d.CatLeft, c)
			}
		}
	}
	d.Left = dumpNode(n.left)
	d.Right = dumpNode(n.right)
	return d
}

func reflectTreeJSON(t *Regressor) ([]byte, error) {
	return json.Marshal(treeDump{Config: t.cfg, Root: dumpNode(t.root)})
}

// jsonEdgeFloats hits every branch of encoding/json's float format: zero
// of both signs, subnormals, the 'e' band below 1e-6 (with one- and
// two-digit exponents), the 'f' band, the 'e' band from 1e21 up, and the
// negative of each.
var jsonEdgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	1e-300, 1e-7, 9.999999e-7, 1e-6, 1.5e-6, 0.1, 1, 3.25, 123456789.125,
	1e20, 999999999999999900000, 1e21, 1.5e22, 1e100, math.MaxFloat64,
	-math.SmallestNonzeroFloat64, -1e-7, -1e-6, -0.5, -42, -1e21, -math.MaxFloat64,
}

// checkTreeBytes compares AppendJSON (onto a non-empty prefix, which
// must survive) and MarshalJSON against the reflective oracle.
func checkTreeBytes(t *testing.T, tr *Regressor, what string) {
	t.Helper()
	want, err := reflectTreeJSON(tr)
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	got, err := tr.AppendJSON([]byte("prefix"))
	if err != nil {
		t.Fatalf("%s: AppendJSON: %v", what, err)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: encoder bytes differ from the reflective oracle\n got %s\nwant %s", what, got, want)
	}
	if m, err := json.Marshal(tr); err != nil || !bytes.Equal(m, want) {
		t.Fatalf("%s: json.Marshal(tree) = %s, %v; want the oracle bytes", what, m, err)
	}
}

// TestTreeJSONMatchesReflectEncoder pins the direct encoder to the
// reflective one it replaced, byte for byte: on fitted trees over
// numeric, categorical, mixed and all-categorical spaces with
// KeepTargets on and off, on hand-built trees whose thresholds, leaf
// statistics, targets and config carry every float edge value, and in
// rejecting NaN and ±Inf.
func TestTreeJSONMatchesReflectEncoder(t *testing.T) {
	r := rng.New(11)
	for seed := uint64(1); seed <= 40; seed++ {
		n, d := 20+r.Intn(120), 1+r.Intn(6)
		X, y, fs := mixedSpace(r, n, d)
		switch seed % 4 {
		case 1: // all numeric
			for j := range fs {
				fs[j] = space.Feature{Name: "x", Kind: space.FeatNumeric}
			}
		case 2: // all categorical
			for j := range fs {
				fs[j] = space.Feature{Name: "c", Kind: space.FeatCategorical, NumCategories: 70}
				for i := range X {
					X[i][j] = float64(r.Intn(70))
				}
			}
		}
		if seed%5 == 0 {
			// Edge-valued targets reach the leaf statistics (and targets)
			// of fitted trees; scaled inputs reach the thresholds. Targets
			// stay below 1e100 so leaf variances do not overflow.
			for i := range y {
				for y[i] = math.Inf(1); math.Abs(y[i]) > 1e100; {
					y[i] = jsonEdgeFloats[r.Intn(len(jsonEdgeFloats))]
				}
			}
			for i := range X {
				for j, f := range fs {
					if f.Kind == space.FeatNumeric {
						X[i][j] *= 1e-9
					}
				}
			}
		}
		cfg := Config{
			MaxDepth:            r.Intn(8),
			MinSamplesLeaf:      1 + r.Intn(3),
			MinSamplesSplit:     r.Intn(5),
			MaxFeatures:         r.Intn(d + 1),
			MinImpurityDecrease: []float64{0, 1e-9, 0.5}[r.Intn(3)],
			KeepTargets:         seed%2 == 0,
		}
		tr, err := Fit(X, y, fs, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		checkTreeBytes(t, tr, "fitted tree")
	}

	for keep := 0; keep < 2; keep++ {
		for i, v := range jsonEdgeFloats {
			tr := edgeTree(v, i, keep == 1)
			checkTreeBytes(t, tr, "edge tree")
		}
	}

	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		for _, site := range []func(*Regressor){
			func(tr *Regressor) { tr.root.left.left.mean = v },
			func(tr *Regressor) { tr.root.right.right.variance = v },
			func(tr *Regressor) { tr.root.threshold = v },
			func(tr *Regressor) { tr.root.left.left.targets[1] = v },
			func(tr *Regressor) { tr.cfg.MinImpurityDecrease = v },
		} {
			tr := edgeTree(1, 1, true)
			site(tr)
			if _, err := reflectTreeJSON(tr); err == nil {
				t.Fatalf("oracle accepted %v", v)
			}
			if _, err := tr.AppendJSON(nil); err == nil {
				t.Fatalf("AppendJSON accepted %v", v)
			}
			if _, err := json.Marshal(tr); err == nil {
				t.Fatalf("json.Marshal(tree) accepted %v", v)
			}
		}
	}
}

// edgeTree builds a two-level tree carrying v in every float field: a
// numeric root split on feature i%3 (feature 0 exercises omitempty), a
// categorical split with no category routed left on its left, and a
// categorical split with some categories left on its right.
func edgeTree(v float64, i int, keep bool) *Regressor {
	leaf := func(m float64) *node {
		n := &node{mean: m, variance: math.Abs(m), count: i}
		if keep {
			n.targets = []float64{-m, m, v}
		}
		return n
	}
	cats := make([]bool, 70)
	cats[3], cats[64], cats[69] = true, true, true
	root := &node{
		feature: i % 3, threshold: v, mean: v, variance: v, count: 2 * i,
		left: &node{feature: 3, catLeft: make([]bool, 5), threshold: v,
			left: leaf(v), right: leaf(-v), mean: -v, variance: 0, count: i},
		right: &node{feature: 4, catLeft: cats,
			left: leaf(v / 3), right: leaf(-v / 7), mean: v, variance: 1, count: i},
	}
	return &Regressor{root: root, cfg: Config{MaxDepth: i, MinSamplesLeaf: -i, MinImpurityDecrease: v, KeepTargets: keep}}
}
