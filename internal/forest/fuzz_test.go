package forest

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/space"
)

// FuzzForestLoad feeds arbitrary bytes to the forest decoder. No input
// may panic Load, and no accepted forest may panic PredictBatch or
// ScoreBatch on rows of its schema's width — including out-of-range
// category codes. An accepted forest re-encodes to a fixed point:
// MarshalJSON(Load(MarshalJSON(Load(x)))) equals MarshalJSON(Load(x)).
// The seed corpus (testdata/fuzz/FuzzForestLoad) holds a fitted numeric
// forest, a categorical one and a KeepTargets one.
func FuzzForestLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fo, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		X := probeRows(fo.features)
		fo.PredictBatch(X)
		mu, sigma := make([]float64, len(X)), make([]float64, len(X))
		fo.ScoreBatch(X, mu, sigma)

		once, err := fo.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted forest does not encode: %v", err)
		}
		again, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded forest does not load: %v\n%s", err, once)
		}
		twice, err := again.MarshalJSON()
		if err != nil {
			t.Fatalf("reloaded forest does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n once %s\ntwice %s", once, twice)
		}
	})
}

// probeRows returns rows of the schema's width whose values reach both
// sides of typical splits and step outside every categorical range.
func probeRows(fs []space.Feature) [][]float64 {
	vals := []float64{0, 1, -1, 0.5, 1e9, math.NaN()}
	X := make([][]float64, len(vals)+1)
	for i := range X {
		X[i] = make([]float64, len(fs))
		for j, ft := range fs {
			if i < len(vals) {
				X[i][j] = vals[i]
			} else {
				X[i][j] = float64(ft.NumCategories) // one past the last category
			}
		}
	}
	return X
}
