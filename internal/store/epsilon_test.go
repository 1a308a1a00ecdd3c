package store

import (
	"bytes"
	"strings"
	"testing"
)

// TestEpsilonRoundTrip: an ε-approximate plan set round-trips with its
// approximation factor, re-serializes byte-identically (the document is
// a pure function of the plan set), and the ε = 0 path stays
// byte-identical to the historical exact writer.
func TestEpsilonRoundTrip(t *testing.T) {
	res, metrics, space := optimizeSample(t)

	var exact, exactEps bytes.Buffer
	if err := SaveIndexed(&exact, metrics, space, res.Plans, nil); err != nil {
		t.Fatalf("save exact: %v", err)
	}
	if err := SaveIndexedEpsilon(&exactEps, metrics, space, res.Plans, nil, 0); err != nil {
		t.Fatalf("save exact via epsilon writer: %v", err)
	}
	if !bytes.Equal(exact.Bytes(), exactEps.Bytes()) {
		t.Error("epsilon=0 output differs from the historical exact form")
	}
	if strings.Contains(exact.String(), `"epsilon"`) {
		t.Error("exact document carries an epsilon stanza")
	}

	var buf bytes.Buffer
	if err := SaveIndexedEpsilon(&buf, metrics, space, res.Plans, nil, 0.05); err != nil {
		t.Fatalf("save: %v", err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	ps, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if ps.Epsilon != 0.05 {
		t.Errorf("loaded epsilon %v, want 0.05", ps.Epsilon)
	}
	if len(ps.Plans) != len(res.Plans) {
		t.Fatalf("loaded %d plans, want %d", len(ps.Plans), len(res.Plans))
	}

	// Save→Load→Save byte identity for the ε tier: re-serialize from
	// the original plans with the loaded epsilon (the loaded plan set
	// carries rebuilt regions, the document is keyed on the inputs).
	var second bytes.Buffer
	if err := SaveIndexedEpsilon(&second, metrics, space, res.Plans, nil, ps.Epsilon); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Error("epsilon document is not byte-stable across save/load/save")
	}
}

// TestSaveRejectsInvalidEpsilon: negative and NaN factors must fail at
// save time, not round-trip into documents Load would reject.
func TestSaveRejectsInvalidEpsilon(t *testing.T) {
	res, metrics, space := optimizeSample(t)
	var buf bytes.Buffer
	if err := SaveIndexedEpsilon(&buf, metrics, space, res.Plans, nil, -0.1); err == nil {
		t.Error("negative epsilon accepted")
	}
	nan := 0.0
	nan /= nan
	if err := SaveIndexedEpsilon(&buf, metrics, space, res.Plans, nil, nan); err == nil {
		t.Error("NaN epsilon accepted")
	}
}

// TestLoadRejectsEpsilonStanzaErrors: the version number and the
// epsilon stanza must certify each other. A v4 document without an
// epsilon, a v3 document with one, a negative factor, or a
// malformed/truncated stanza are all format errors — never a silent
// load under the wrong tier.
func TestLoadRejectsEpsilonStanzaErrors(t *testing.T) {
	cases := map[string]string{
		"v4 without epsilon": `{"version":4,"metrics":["t"],"space":{"dim":1},"plans":[]}`,
		"v4 zero epsilon":    `{"version":4,"epsilon":0,"metrics":["t"],"space":{"dim":1},"plans":[]}`,
		"v3 with epsilon":    `{"version":3,"epsilon":0.05,"metrics":["t"],"space":{"dim":1},"plans":[]}`,
		"negative epsilon":   `{"version":4,"epsilon":-0.05,"metrics":["t"],"space":{"dim":1},"plans":[]}`,
		"malformed epsilon":  `{"version":4,"epsilon":"five percent","metrics":["t"],"space":{"dim":1},"plans":[]}`,
		"truncated stanza":   `{"version":4,"epsilon":0.0`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestLoadEpsilonDocumentTruncated: an ε document cut off at every
// prefix length must error or load with the correct epsilon — a
// truncation can never flip the tier.
func TestLoadEpsilonDocumentTruncated(t *testing.T) {
	res, metrics, space := optimizeSample(t)
	var buf bytes.Buffer
	if err := SaveIndexedEpsilon(&buf, metrics, space, res.Plans, nil, 0.25); err != nil {
		t.Fatalf("save: %v", err)
	}
	raw := buf.Bytes()
	step := len(raw)/64 + 1
	for n := 0; n < len(raw); n += step {
		ps, err := Load(bytes.NewReader(raw[:n]))
		if err != nil {
			continue
		}
		if ps.Epsilon != 0.25 {
			t.Fatalf("truncation at %d/%d loaded with epsilon %v, want 0.25", n, len(raw), ps.Epsilon)
		}
	}
}
