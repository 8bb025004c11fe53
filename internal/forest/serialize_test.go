package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/space"
)

func TestForestJSONRoundTrip(t *testing.T) {
	X, y := friedman(rng.New(1), 200)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 16}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumTrees() != 16 {
		t.Fatalf("reloaded %d trees", f2.NumTrees())
	}
	// Identical predictions and uncertainties on every training point.
	for i := range X {
		m1, s1 := f.PredictWithUncertainty(X[i])
		m2, s2 := f2.PredictWithUncertainty(X[i])
		if m1 != m2 || s1 != s2 {
			t.Fatalf("round trip changed prediction at %d: (%v,%v) vs (%v,%v)", i, m1, s1, m2, s2)
		}
	}
	if f.OOBRMSE() != f2.OOBRMSE() {
		t.Fatalf("OOB lost: %v vs %v", f.OOBRMSE(), f2.OOBRMSE())
	}
}

func TestForestJSONCategorical(t *testing.T) {
	fs := []space.Feature{
		{Name: "x", Kind: space.FeatNumeric},
		{Name: "c", Kind: space.FeatCategorical, NumCategories: 5},
	}
	r := rng.New(3)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		c := r.Intn(5)
		X[i] = []float64{r.Float64(), float64(c)}
		y[i] = float64(c%2)*10 + X[i][0]
	}
	f, err := Fit(X, y, fs, Config{NumTrees: 8}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var f2 Forest
	if err := json.Unmarshal(data, &f2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		probe := []float64{r.Float64(), float64(r.Intn(5))}
		if f.Predict(probe) != f2.Predict(probe) {
			t.Fatal("categorical round trip changed predictions")
		}
	}
}

func TestForestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"trees":[]}`,
		`{"features":[{"Name":"x","Kind":0}],"trees":[]}`,
		`{"features":[{"Name":"x","Kind":0}],"trees":["not a tree"]}`,
		`{"features":[{"Name":"x","Kind":0}],"trees":[{"config":{},"root":null}]}`,
	}
	for i, s := range cases {
		if _, err := Load(strings.NewReader(s)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestForestNaNOOBOmitted(t *testing.T) {
	X, y := friedman(rng.New(5), 50)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 4, DisableBagging: true}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f.OOBRMSE()) {
		t.Fatal("expected NaN OOB with bagging disabled")
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err) // NaN must not reach the JSON encoder
	}
	var f2 Forest
	if err := json.Unmarshal(data, &f2); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(f2.OOBRMSE()) {
		t.Fatal("NaN OOB not restored")
	}
}

func TestReloadedForestUpdatable(t *testing.T) {
	// A reloaded forest must still support warm partial updates.
	X, y := friedman(rng.New(7), 100)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 8}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Update(X, y, rng.New(9)); err != nil {
		t.Fatal(err)
	}
}

// TestForestLoadRejectsUnpredictableSplits: a split the feature schema
// cannot evaluate must fail Load, not the first prediction after it. A
// split on feature 99 of a 7-feature schema used to load and then panic
// with an index out of range inside a scoring worker.
func TestForestLoadRejectsUnpredictableSplits(t *testing.T) {
	X, y := friedman(rng.New(8), 60)
	f, err := Fit(X, y, numFeatures(7), Config{NumTrees: 3}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	good, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(good, []byte(`"f":`)) {
		t.Fatal("fixture forest has no split on a non-zero feature")
	}
	outOfSchema := bytes.Replace(good, []byte(`"f":`), []byte(`"f":99,"x":`), 1)
	if _, err := Load(bytes.NewReader(outOfSchema)); err == nil || !strings.Contains(err.Error(), "feature 99") {
		t.Fatalf("split on feature 99 of 7: err = %v", err)
	}

	const schema = `"features":[{"Name":"x","Kind":0},{"Name":"c","Kind":1,"NumCategories":3}]`
	leaf := `{"m":1,"v":0,"n":1}`
	doc := func(root string) string {
		return `{"config":{},` + schema + `,"trees":[{"config":{},"root":` + root + `}]}`
	}
	split := func(fields string) string {
		return `{` + fields + `,"l":` + leaf + `,"r":` + leaf + `,"m":1,"v":0,"n":2}`
	}
	for _, ok := range []string{
		split(`"t":0.5`),
		split(`"f":1,"cl":[0,2],"nc":3`),
		split(`"f":1,"nc":3`),
	} {
		if _, err := Load(strings.NewReader(doc(ok))); err != nil {
			t.Fatalf("valid split %s rejected: %v", ok, err)
		}
	}
	for name, bad := range map[string]string{
		"feature past the schema":        doc(split(`"f":2,"t":0.5`)),
		"negative feature":               doc(split(`"f":-1,"t":0.5`)),
		"categorical split on numeric":   doc(split(`"cl":[1],"nc":3`)),
		"numeric split on categorical":   doc(split(`"f":1,"t":0.5`)),
		"bitmap narrower than feature":   doc(split(`"f":1,"cl":[1],"nc":2`)),
		"bitmap wider than feature":      doc(split(`"f":1,"cl":[1],"nc":4`)),
		"negative leaf count":            doc(`{"m":1,"v":0,"n":-1}`),
		"negative internal count":        doc(`{"t":0.5,"l":` + leaf + `,"r":` + leaf + `,"m":1,"v":0,"n":-2}`),
		"negative update cursor":         `{"config":{},` + schema + `,"trees":[{"config":{},"root":` + leaf + `}],"next_refresh":-1}`,
		"bitmap beyond the load maximum": `{"config":{},"features":[{"Name":"c","Kind":1,"NumCategories":1000000}],"trees":[{"config":{},"root":` + `{"nc":1000000,"l":` + leaf + `,"r":` + leaf + `,"m":1,"v":0,"n":2}}]}`,
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
