package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
	"repro/internal/tree"
)

// reflectForestJSON is the reflective encoder the direct MarshalJSON
// replaced: each tree marshalled on its own, then the forestDump with
// its RawMessage trees re-compacted by encoding/json. It stays here as
// the byte-identity oracle of the forest layer; the tree bytes are
// pinned to their own reflective oracle in internal/tree.
func reflectForestJSON(f *Forest) ([]byte, error) {
	d := forestDump{forestHead: forestHead{Config: f.cfg, Features: f.features}, NextRefresh: f.nextRefresh}
	if !math.IsNaN(f.oob) {
		v := f.oob
		d.OOB = &v
	}
	for _, t := range f.trees {
		raw, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		d.Trees = append(d.Trees, raw)
	}
	return json.Marshal(d)
}

// edgeFloats hits every branch of encoding/json's float format: zero,
// subnormals, the 'e' band below 1e-6, the 'f' band, the 'e' band from
// 1e21 up, and negatives. Magnitudes stay below 1e100 so leaf variances
// of fitted trees stay finite.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-300, 1e-7,
	9.999999e-7, 1e-6, 0.1, 3.25, 123456789.125, 1e20, 1e21, 1.5e22, 1e99,
	-math.SmallestNonzeroFloat64, -1e-7, -0.5, -42, -1e21,
}

// randomForestData draws a schema of kind 0 (numeric), 1 (categorical)
// or 2 (mixed) and n rows over it; edge puts edgeFloats in the targets
// and scales numeric inputs into the 'e' band so thresholds land there.
func randomForestData(r *rng.RNG, kind, n int, edge bool) ([][]float64, []float64, []space.Feature) {
	d := 1 + r.Intn(5)
	fs := make([]space.Feature, d)
	for j := range fs {
		if kind == 1 || (kind == 2 && r.Intn(2) == 0) {
			fs[j] = space.Feature{Name: "c<&>", Kind: space.FeatCategorical, NumCategories: 2 + r.Intn(69)}
		} else {
			fs[j] = space.Feature{Name: "x", Kind: space.FeatNumeric}
		}
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j, f := range fs {
			if f.Kind == space.FeatCategorical {
				X[i][j] = float64(r.Intn(f.NumCategories))
			} else if edge {
				X[i][j] = float64(r.Intn(10)) * 1e-9
			} else {
				X[i][j] = r.Float64()
			}
			y[i] += X[i][j] * float64(j+1)
		}
		if edge {
			y[i] = edgeFloats[r.Intn(len(edgeFloats))]
		}
	}
	return X, y, fs
}

// TestForestJSONMatchesReflectEncoder pins the forest's one-buffer
// encoder to the reflective one it replaced, byte for byte, over random
// forests: numeric, categorical, mixed and all-categorical schemas,
// KeepTargets on and off, a NaN OOB (bagging off), a non-zero update
// cursor, and edge-valued targets and thresholds. Save writes the same
// bytes, and a non-finite leaf statistic or OOB fails both encoders.
func TestForestJSONMatchesReflectEncoder(t *testing.T) {
	r := rng.New(71)
	for seed := uint64(1); seed <= 40; seed++ {
		X, y, fs := randomForestData(r, int(seed%3), 20+r.Intn(60), seed%5 == 0)
		cfg := Config{
			NumTrees:       1 + r.Intn(9),
			Workers:        2,
			DisableBagging: seed%4 == 0,
			Tree:           tree.Config{MinSamplesLeaf: 1 + r.Intn(3), MaxFeatures: r.Intn(3), KeepTargets: seed%2 == 0},
		}
		f, err := Fit(X, y, fs, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if seed%3 == 1 {
			if err := f.Update(X, y, rng.New(seed+100)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := reflectForestJSON(f)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		got, err := f.MarshalJSON()
		if err != nil {
			t.Fatalf("seed %d: MarshalJSON: %v", seed, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: encoder bytes differ from the reflective oracle\n got %s\nwant %s", seed, got, want)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("seed %d: Save wrote different bytes (err %v)", seed, err)
		}
		if m, err := json.Marshal(f); err != nil || !bytes.Equal(m, want) {
			t.Fatalf("seed %d: json.Marshal(forest) differs (err %v)", seed, err)
		}
	}

	// The corner values of the wrapper itself.
	X, y := friedman(rng.New(72), 40)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 4, DisableBagging: true}, rng.New(73))
	if err != nil {
		t.Fatal(err)
	}
	for _, oob := range []float64{math.NaN(), 0, math.Copysign(0, -1), 1e-7, 1e21} {
		f.oob, f.nextRefresh = oob, 3
		want, err1 := reflectForestJSON(f)
		got, err2 := f.MarshalJSON()
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("oob %v: got %s (%v), want %s (%v)", oob, got, err2, want, err1)
		}
	}

	// Non-finite values fail both encoders: a NaN or Inf target reaches
	// the leaf statistics, and an infinite OOB the head.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		yb := append([]float64(nil), y...)
		yb[0] = bad
		fb, err := Fit(X, yb, numFeatures(7), Config{NumTrees: 2, DisableBagging: true}, rng.New(74))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reflectForestJSON(fb); err == nil {
			t.Fatalf("oracle accepted a %v leaf", bad)
		}
		if _, err := fb.MarshalJSON(); err == nil {
			t.Fatalf("MarshalJSON accepted a %v leaf", bad)
		}
	}
	f.oob = math.Inf(1)
	if _, err := reflectForestJSON(f); err == nil {
		t.Fatal("oracle accepted an infinite OOB")
	}
	if _, err := f.MarshalJSON(); err == nil {
		t.Fatal("MarshalJSON accepted an infinite OOB")
	}
}
