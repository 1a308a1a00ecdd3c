package store

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mpq/internal/geometry"
	"mpq/internal/index"
	"mpq/internal/pwl"
	"mpq/internal/selection"
)

// saveIndexedSample serializes a real optimized plan set with a built
// pick index — the exact bytes a fleet's shared store would hold.
func saveIndexedSample(t *testing.T) []byte {
	t.Helper()
	res, metrics, space := optimizeSample(t)
	cands := make([]selection.Candidate, 0, len(res.Plans))
	for _, info := range res.Plans {
		cands = append(cands, selection.Candidate{Plan: info.Plan, Cost: info.Cost.(*pwl.Multi), RR: info.RR})
	}
	ix, err := index.Build(geometry.NewSolver(geometry.Config{}), space, cands, index.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveIndexed(&buf, metrics, space, res.Plans, ix); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadTruncatedIndexedDocument: a v3 document cut off anywhere
// inside its index stanza — the torn-write shape an unsynchronized
// shared store could expose — must fail Load with an error, never load
// a partial index.
func TestLoadTruncatedIndexedDocument(t *testing.T) {
	doc := saveIndexedSample(t)
	if _, err := Load(bytes.NewReader(doc)); err != nil {
		t.Fatalf("intact document rejected: %v", err)
	}
	start := bytes.Index(doc, []byte(`"index":`))
	if start < 0 {
		t.Fatal("document carries no index stanza")
	}
	// Cut at several points from the start of the stanza to just before
	// the end of the document.
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.99} {
		cut := start + int(frac*float64(len(doc)-start))
		if cut >= len(doc) {
			cut = len(doc) - 1
		}
		if _, err := Load(bytes.NewReader(doc[:cut])); err == nil {
			t.Errorf("document truncated at byte %d/%d loaded successfully", cut, len(doc))
		}
	}
}

// TestLoadIndexStanzaMissingNodes: a structurally valid JSON document
// whose index stanza lost its trailing nodes (the structured version
// of a truncation) is rejected by the tree verification.
func TestLoadIndexStanzaMissingNodes(t *testing.T) {
	doc := saveIndexedSample(t)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	var ix struct {
		LeafTarget int               `json:"leaf_target"`
		MaxDepth   int               `json:"max_depth"`
		MaxLeaves  int               `json:"max_leaves"`
		Lo         []float64         `json:"lo"`
		Hi         []float64         `json:"hi"`
		Nodes      []json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(m["index"], &ix); err != nil {
		t.Fatal(err)
	}
	if len(ix.Nodes) < 2 {
		t.Skipf("index has %d nodes; nothing to drop", len(ix.Nodes))
	}
	ix.Nodes = ix.Nodes[:len(ix.Nodes)-1]
	raw, err := json.Marshal(ix)
	if err != nil {
		t.Fatal(err)
	}
	m["index"] = raw
	mut, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(mut))
	if err == nil {
		t.Fatal("index stanza with a missing node loaded successfully")
	}
	if !strings.Contains(err.Error(), "index") {
		t.Errorf("error %q does not point at the index stanza", err)
	}
}
