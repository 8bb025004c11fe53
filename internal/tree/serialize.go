package tree

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/space"
)

// nodeDump is the wire form of a tree node, used to decode. Leaves omit
// the split fields; internal nodes always carry both children. The
// encoder (appendNode) writes the same keys in the same order with the
// same omitempty rules.
type nodeDump struct {
	Feature   int       `json:"f,omitempty"`
	Threshold float64   `json:"t,omitempty"`
	CatLeft   []int     `json:"cl,omitempty"` // category indices routed left
	NumCats   int       `json:"nc,omitempty"` // width of the catLeft bitmap
	Left      *nodeDump `json:"l,omitempty"`
	Right     *nodeDump `json:"r,omitempty"`

	Mean     float64 `json:"m"`
	Variance float64 `json:"v"`
	Count    int     `json:"n"`

	// Targets carries the leaf's sorted training targets when the tree
	// was fitted with Config.KeepTargets (quantile support).
	Targets []float64 `json:"ts,omitempty"`
}

// treeDump is the wire form of a fitted Regressor (without the feature
// schema, which the owning forest stores once), used to decode.
type treeDump struct {
	Config Config    `json:"config"`
	Root   *nodeDump `json:"root"`
}

// maxLoadCategories bounds the bitmap width a decoded categorical split
// may declare. Tuning spaces have a handful of categories per parameter
// (the quantized kernel already stops at 2^14); the bound keeps a
// hostile document from forcing a huge bitmap allocation per node.
const maxLoadCategories = 1 << 16

// loadNode rebuilds a node from its wire form, rejecting any split a
// prediction over features could not evaluate: a feature index outside
// the schema, a split whose kind disagrees with its feature's, or a
// bitmap whose width is not the feature's category count.
func loadNode(d *nodeDump, features []space.Feature) (*node, error) {
	if d.Count < 0 {
		return nil, fmt.Errorf("tree: negative sample count %d", d.Count)
	}
	n := &node{mean: d.Mean, variance: d.Variance, count: d.Count}
	if d.Left == nil && d.Right == nil {
		n.targets = d.Targets
		return n, nil
	}
	if d.Left == nil || d.Right == nil {
		return nil, fmt.Errorf("tree: node with exactly one child")
	}
	if d.Feature < 0 || d.Feature >= len(features) {
		return nil, fmt.Errorf("tree: split on feature %d outside the %d-feature schema", d.Feature, len(features))
	}
	ft := features[d.Feature]
	n.feature = d.Feature
	n.threshold = d.Threshold
	categorical := d.CatLeft != nil || d.NumCats > 0
	if categorical != (ft.Kind == space.FeatCategorical) {
		return nil, fmt.Errorf("tree: split kind does not match feature %d (%s)", d.Feature, ft.Name)
	}
	if categorical {
		if d.NumCats <= 0 {
			return nil, fmt.Errorf("tree: categorical node without category count")
		}
		if d.NumCats > maxLoadCategories {
			return nil, fmt.Errorf("tree: categorical split over %d categories exceeds %d", d.NumCats, maxLoadCategories)
		}
		if d.NumCats != ft.NumCategories {
			return nil, fmt.Errorf("tree: categorical split on feature %d is %d wide, the feature has %d categories", d.Feature, d.NumCats, ft.NumCategories)
		}
		n.catLeft = make([]bool, d.NumCats)
		for _, c := range d.CatLeft {
			if c < 0 || c >= d.NumCats {
				return nil, fmt.Errorf("tree: category %d out of bitmap width %d", c, d.NumCats)
			}
			n.catLeft[c] = true
		}
	}
	var err error
	if n.left, err = loadNode(d.Left, features); err != nil {
		return nil, err
	}
	if n.right, err = loadNode(d.Right, features); err != nil {
		return nil, err
	}
	return n, nil
}

// MarshalJSON encodes the fitted tree structure.
func (t *Regressor) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(nil)
}

// AppendJSON appends the tree's JSON encoding to dst: compact and
// byte-identical to what encoding/json would produce for its wire form,
// so the bytes can be embedded as-is in a larger document. A non-finite
// value (NaN or ±Inf leaf statistics, threshold or config) is an error,
// as it is for encoding/json.
func (t *Regressor) AppendJSON(dst []byte) ([]byte, error) {
	// Config has no tags, so its keys are its field names in declaration
	// order; a field added to Config must be added here too, or
	// TestTreeJSONMatchesReflectEncoder fails.
	c := t.cfg
	dst = append(dst, `{"config":{"MaxDepth":`...)
	dst = strconv.AppendInt(dst, int64(c.MaxDepth), 10)
	dst = append(dst, `,"MinSamplesLeaf":`...)
	dst = strconv.AppendInt(dst, int64(c.MinSamplesLeaf), 10)
	dst = append(dst, `,"MinSamplesSplit":`...)
	dst = strconv.AppendInt(dst, int64(c.MinSamplesSplit), 10)
	dst = append(dst, `,"MaxFeatures":`...)
	dst = strconv.AppendInt(dst, int64(c.MaxFeatures), 10)
	dst = append(dst, `,"MinImpurityDecrease":`...)
	dst, err := appendFloat(dst, c.MinImpurityDecrease)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"KeepTargets":`...)
	dst = strconv.AppendBool(dst, c.KeepTargets)
	dst = append(dst, `},"root":`...)
	if dst, err = appendNode(dst, t.root); err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendNode writes n and its subtree in nodeDump's key order: the split
// fields f, t, cl, nc, l, r of internal nodes (each omitted when zero or
// empty), then m, v, n, then ts on leaves with kept targets.
func appendNode(dst []byte, n *node) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	if !n.isLeaf() {
		if n.feature != 0 {
			dst = append(dst, `"f":`...)
			dst = strconv.AppendInt(dst, int64(n.feature), 10)
			dst = append(dst, ',')
		}
		if n.threshold != 0 {
			dst = append(dst, `"t":`...)
			if dst, err = appendFloat(dst, n.threshold); err != nil {
				return nil, err
			}
			dst = append(dst, ',')
		}
		first := true
		for c, in := range n.catLeft {
			if !in {
				continue
			}
			if first {
				dst = append(dst, `"cl":[`...)
				first = false
			} else {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(c), 10)
		}
		if !first {
			dst = append(dst, "],"...)
		}
		if len(n.catLeft) > 0 {
			dst = append(dst, `"nc":`...)
			dst = strconv.AppendInt(dst, int64(len(n.catLeft)), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, `"l":`...)
		if dst, err = appendNode(dst, n.left); err != nil {
			return nil, err
		}
		dst = append(dst, `,"r":`...)
		if dst, err = appendNode(dst, n.right); err != nil {
			return nil, err
		}
		dst = append(dst, ',')
	}
	dst = append(dst, `"m":`...)
	if dst, err = appendFloat(dst, n.mean); err != nil {
		return nil, err
	}
	dst = append(dst, `,"v":`...)
	if dst, err = appendFloat(dst, n.variance); err != nil {
		return nil, err
	}
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(n.count), 10)
	if n.isLeaf() && len(n.targets) > 0 {
		dst = append(dst, `,"ts":[`...)
		for i, v := range n.targets {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFloat(dst, v); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendFloat appends v exactly as encoding/json encodes a float64:
// the shortest representation in 'f' format, switching to 'e' for
// magnitudes below 1e-6 or at least 1e21, with a two-digit negative
// exponent shortened (e-07 → e-7). NaN and ±Inf are errors, as they are
// for encoding/json.
func appendFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// UnmarshalJSONWithFeatures decodes a tree serialized by MarshalJSON,
// reattaching the feature schema (kept by the owning forest). Every
// split is checked against that schema, so an accepted tree predicts on
// any len(features)-wide row without panicking.
func UnmarshalJSONWithFeatures(data []byte, features []space.Feature) (*Regressor, error) {
	var d treeDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if d.Root == nil {
		return nil, fmt.Errorf("tree: dump has no root")
	}
	root, err := loadNode(d.Root, features)
	if err != nil {
		return nil, err
	}
	return &Regressor{features: features, root: root, cfg: d.Config}, nil
}
