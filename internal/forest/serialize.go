package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/space"
	"repro/internal/tree"
)

// forestHead is the part of a forest's wire form that precedes the
// trees. MarshalJSON encodes it with encoding/json once per forest.
type forestHead struct {
	Config   Config          `json:"config"`
	Features []space.Feature `json:"features"`
	OOB      *float64        `json:"oob,omitempty"` // nil encodes NaN
}

// forestDump is the wire form of a fitted Forest, used to decode. Trees
// are raw JSON messages so the tree package owns its own format.
type forestDump struct {
	forestHead
	Trees []json.RawMessage `json:"trees"`

	// NextRefresh preserves the partial-update rotation cursor, so a
	// reloaded forest continues warm updates exactly where the original
	// left off (required for bit-identical checkpoint/resume).
	NextRefresh int `json:"next_refresh,omitempty"`
}

// MarshalJSON encodes the fitted forest, including every tree, the
// feature schema and the training configuration — enough to reload and
// predict on another machine, the "model portability" the paper's
// conclusion points at.
//
// The document is built in one buffer: the head through encoding/json,
// then each tree appended by its own encoder. The bytes are compact and
// identical to encoding/json's output for forestDump, so callers embed
// them without another compaction pass.
func (f *Forest) MarshalJSON() ([]byte, error) {
	head := forestHead{Config: f.cfg, Features: f.features}
	if !math.IsNaN(f.oob) {
		v := f.oob
		head.OOB = &v
	}
	hb, err := json.Marshal(head)
	if err != nil {
		return nil, err
	}
	// Fitted forests encode to ~65 bytes per node (keys, split and three
	// full-precision statistics); 72 leaves headroom so the buffer rarely
	// grows. Kept leaf targets grow it as needed.
	size := len(hb) + 32
	for _, c := range f.compiled {
		size += 72 * c.NumNodes()
	}
	// The head's closing brace is dropped: the trees continue its object.
	buf := append(make([]byte, 0, size), hb[:len(hb)-1]...)
	buf = append(buf, `,"trees":[`...)
	for i, t := range f.trees {
		if i > 0 {
			buf = append(buf, ',')
		}
		if buf, err = t.AppendJSON(buf); err != nil {
			return nil, err
		}
	}
	buf = append(buf, ']')
	if f.nextRefresh != 0 {
		buf = append(buf, `,"next_refresh":`...)
		buf = strconv.AppendInt(buf, int64(f.nextRefresh), 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON decodes a forest serialized by MarshalJSON.
func (f *Forest) UnmarshalJSON(data []byte) error {
	var d forestDump
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.Trees) == 0 {
		return fmt.Errorf("forest: dump has no trees")
	}
	if len(d.Features) == 0 {
		return fmt.Errorf("forest: dump has no feature schema")
	}
	if d.NextRefresh < 0 {
		return fmt.Errorf("forest: negative next_refresh %d", d.NextRefresh)
	}
	trees := make([]*tree.Regressor, len(d.Trees))
	for i, raw := range d.Trees {
		t, err := tree.UnmarshalJSONWithFeatures(raw, d.Features)
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", i, err)
		}
		trees[i] = t
	}
	f.trees = trees
	f.compiled = make([]*tree.Compiled, len(trees))
	for i, t := range trees {
		f.compiled[i] = t.Compile()
	}
	f.features = d.Features
	f.cfg = d.Config
	f.oob = math.NaN()
	if d.OOB != nil {
		f.oob = *d.OOB
	}
	f.nextRefresh = d.NextRefresh % len(trees)
	f.treeGen = make([]uint64, len(trees))
	return nil
}

// Save writes the forest as JSON to w.
func (f *Forest) Save(w io.Writer) error {
	data, err := f.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Load reads a forest serialized with Save.
func Load(r io.Reader) (*Forest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var f Forest
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}
