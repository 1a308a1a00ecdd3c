package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"mpq/internal/plan"
	"mpq/internal/selection"
	"mpq/internal/serve"
)

// Reply encoding, shared by both transports. Every reply is encoded in
// full into a pooled buffer before any byte of it is written, so a
// value that cannot be encoded (a non-finite float) is answered by an
// error object instead of a truncated body. Pick and batch replies —
// the server's hot path — bypass encoding/json's reflection: an
// append-only encoder writes them with each plan's text taken
// pre-rendered from the answering plan set. Their bytes are exactly
// what json.Encoder.Encode writes for the wire schema
//
//	{"metrics":[…],"choices":[{"plan":"…","cost":[…]},…],"epsilon":…}
//
// (a batch's "choices" holds one such list per point), newline
// included.

// replyBufs recycles reply buffers across requests.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply bounds the buffers returned to the pool, so one huge
// batch reply does not stay pinned for the life of the process.
const maxPooledReply = 1 << 20

// renderReply encodes v into a pooled buffer. When v cannot be
// encoded, the buffer holds the {"error":…} object naming why, and
// that error is returned. Callers write the buffer, then hand it back
// with releaseReply.
func renderReply(v any) (*[]byte, error) {
	bp := replyBufs.Get().(*[]byte)
	b, err := appendReply((*bp)[:0], v)
	if err != nil {
		b, _ = appendReply(b[:0], errorJS{Error: err.Error()})
	}
	*bp = b
	return bp, err
}

func releaseReply(bp *[]byte) {
	if cap(*bp) <= maxPooledReply {
		replyBufs.Put(bp)
	}
}

// writeJSON answers an HTTP request with v, or with 500 and an error
// object when v cannot be encoded; it returns that encoding error.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	bp, err := renderReply(v)
	defer releaseReply(bp)
	if err != nil {
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(*bp)
	return err
}

// writeLine writes v as one stdin-protocol reply line (an error object
// when v cannot be encoded); the returned error is the write's.
func writeLine(out io.Writer, v any) error {
	bp, _ := renderReply(v)
	defer releaseReply(bp)
	_, err := out.Write(*bp)
	return err
}

// appendReply appends v's reply line to b.
func appendReply(b []byte, v any) ([]byte, error) {
	switch r := v.(type) {
	case serve.PickResult:
		return appendPick(b, r)
	case serve.PickBatchResult:
		return appendPickBatch(b, r)
	}
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// appendPick appends a single pick's reply.
func appendPick(b []byte, r serve.PickResult) ([]byte, error) {
	b = appendReplyHead(b, r.Metrics)
	b, err := appendChoices(b, r.Choices, r.PlanJSON)
	if err != nil {
		return b, err
	}
	return appendReplyTail(b, r.Epsilon)
}

// appendPickBatch appends a batch's reply: one choice list per point,
// in request order.
func appendPickBatch(b []byte, r serve.PickBatchResult) ([]byte, error) {
	b = appendReplyHead(b, r.Metrics)
	b = append(b, '[')
	for i, cs := range r.Choices {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendChoices(b, cs, r.PlanJSON); err != nil {
			return b, err
		}
	}
	b = append(b, ']')
	return appendReplyTail(b, r.Epsilon)
}

func appendReplyHead(b []byte, metrics []string) []byte {
	b = append(b, `{"metrics":`...)
	if metrics == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, m := range metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, m)
		}
		b = append(b, ']')
	}
	return append(b, `,"choices":`...)
}

// appendChoices appends one choice list; an empty list is [], never
// null.
func appendChoices(b []byte, cs []selection.Choice, planJSON func(*plan.Node) []byte) ([]byte, error) {
	b = append(b, '[')
	for i, c := range cs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"plan":`...)
		b = append(b, planJSON(c.Plan)...)
		b = append(b, `,"cost":`...)
		if c.Cost == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, f := range c.Cost {
				if j > 0 {
					b = append(b, ',')
				}
				var err error
				if b, err = appendFloat(b, f); err != nil {
					return b, err
				}
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

func appendReplyTail(b []byte, epsilon float64) ([]byte, error) {
	b = append(b, `,"epsilon":`...)
	b, err := appendFloat(b, epsilon)
	if err != nil {
		return b, err
	}
	return append(b, "}\n"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or the 'e' form when |f| < 1e-6 or |f| ≥ 1e21,
// with a one-digit exponent unpadded (e-07 → e-7). A non-finite f is
// encoding/json's error, returned as is.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s JSON-quoted. Printable ASCII with nothing to
// escape is copied as is; any other string goes through encoding/json,
// so its HTML and Unicode escaping is exactly the reflection path's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
