// Package wire owns the bytes of the serving tier's query bodies —
// internal/server's /search, /topk and /append — and what both socket
// layers share: the body limit and reader, and the JSON error. (The
// shard RPC's binary frame is internal/cluster's.)
//
// The format is the JSON the README documents, defined by encoding/json;
// the package adds a fast path on each side and keeps encoding/json as
// the fallback and the differential reference:
//
//   - Requests. ReadRequest buffers the body once and tries a
//     single-pass parse of the canonical shape: one object, the
//     endpoint's lower-case keys at most once each, arrays of
//     JSON-grammar numbers, number scalars, only whitespace after it.
//     One scanner checks each number's grammar while it reads up to 19
//     significant digits and the decimal exponent, and Eisel–Lemire
//     converts them to the nearest float64; the rare token it cannot
//     decide (more digits, a halfway case, a subnormal or out-of-range
//     value) goes to strconv.ParseFloat, so every number comes out as
//     the bits encoding/json's strconv call gives. Anything else — an
//     unknown, duplicate, upper-case or escaped key, null, a string, an
//     out-of-range number, a truncated body, bytes after the object —
//     goes, as the same bytes, through json.NewDecoder into the
//     endpoint's tagged struct: what is accepted, refused and said is
//     encoding/json's, by construction.
//   - Answers. WriteAnswer appends an untraced match list in
//     encoding/json's float format into a pooled buffer and writes it
//     once with Content-Length, declining (the caller then encodes with
//     encoding/json) when a distance is not a JSON number.
//
// Which path runs is decided by the bytes alone, never by an option.
// FuzzDecodeRequest and TestAppendMatchesMatchesStdlib hold both fast
// paths to the reference, TestParseFloatMatchesStrconv the conversion.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"twinsearch/internal/series"
)

// MaxBodyBytes bounds every body ReadBody reads. /append legitimately
// carries long value arrays, so the bound is generous; past it a
// request is answered 413.
const MaxBodyBytes = 64 << 20

// maxPooledBytes keeps an outsized body or answer from pinning its
// buffer in the pool.
const maxPooledBytes = 1 << 20

// bufPool recycles body and answer buffers. A pointer to the slice, so
// Put does not allocate.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte, b []byte) {
	if cap(b) > maxPooledBytes {
		return
	}
	*p = b[:0]
	bufPool.Put(p)
}

// WriteJSON answers with v encoded by encoding/json — the shape every
// non-query endpoint, every error and every traced answer uses.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status is out; a failed write has no one left to tell
}

// WriteError answers {"error": err.Error()}, the form every client of
// both socket layers decodes — the shard RPC's refusals included.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// ReadRequest reads one POSTed query body into std, a pointer to the
// endpoint's zero-valued json-tagged struct; f points at std's fields
// under the key each is tagged with, and l pre-sizes the arrays. It
// answers the failure itself (405, 413, or 400 with encoding/json's
// own words) and reports whether the handler may proceed.
func ReadRequest(w http.ResponseWriter, r *http.Request, std any, f Fields, l int) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	p := getBuf()
	body, err := ReadBody(r.Body, r.ContentLength, *p)
	if err == nil {
		err = decodeRequest(body, std, f, l)
	}
	putBuf(p, body)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, fmt.Errorf("bad request body: %w", err))
	return false
}

// ReadBody appends a whole body of declared length (-1: undeclared) to
// buf, refusing one longer than MaxBodyBytes with an *http.MaxBytesError
// — up front when its length is declared. Both socket layers and the
// coordinator reading a node's answer read through it.
func ReadBody(body io.Reader, declared int64, buf []byte) ([]byte, error) {
	if declared > MaxBodyBytes {
		return buf, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	// Room for the declared length plus the read that reports EOF, but
	// at most 64 KiB on a peer's word: past that, buf grows as bytes come.
	if n := int(min(max(declared+1, 512), 1<<16)); n > cap(buf) {
		buf = make([]byte, 0, n)
	}
	lr := io.LimitedReader{R: body, N: MaxBodyBytes + 1} // read directly, so it stays on the stack
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+n]; len(buf) > MaxBodyBytes {
			return buf, &http.MaxBytesError{Limit: MaxBodyBytes}
		} else if err == io.EOF {
			return buf, nil
		} else if err != nil {
			return buf, err
		}
	}
}

// decodeRequest decodes body into std: by the single-pass parser when
// the body is canonical (see the package doc), else by encoding/json.
func decodeRequest(body []byte, std any, f Fields, l int) error {
	if decodeCanonical(body, f, l) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(std)
}

// WriteAnswer writes the serving tier's untraced answer,
// {"count":N,"matches":[{"start":S,"dist":D},...]}, where a negative
// Dist ("not computed") omits the key. It reports false, having
// written nothing, when a distance has no JSON form.
func WriteAnswer(w http.ResponseWriter, ms []series.Match) bool {
	p := getBuf()
	b := append(*p, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(ms)), 10)
	b = append(b, `,"matches":`...)
	b, ok := appendMatches(b, ms)
	if ok {
		b = append(b, "}\n"...)
		writeBody(w, b)
	}
	putBuf(p, b)
	return ok
}

// writeBody sends a complete 200 body in one Write.
func writeBody(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // as in WriteJSON: no one left to tell
}
