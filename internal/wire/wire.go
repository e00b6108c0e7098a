// Package wire owns the bytes of every query body the two socket
// layers exchange: internal/server's /search, /topk and /append, and
// internal/cluster's shard RPC (/shard/search|topk|prefix|approx).
// Before it, both layers pushed every body through encoding/json's
// reflection three times over; on a cache-hit query that decode, not
// the index, was more than half of the request.
//
// The wire format is unchanged — it is still the JSON the README
// documents, and encoding/json still defines it. The package adds a
// fast path on each side of a request and keeps encoding/json as the
// fallback and the differential reference:
//
//   - Requests. ReadRequest buffers the body once (bounded by
//     MaxBodyBytes) and tries a single-pass parse of the canonical
//     shape: one object, the endpoint's known lower-case keys each at
//     most once, arrays of JSON-grammar numbers, number / true / false
//     scalars, only whitespace after the closing brace. Every number is
//     converted by strconv.ParseFloat / ParseInt over the token's own
//     bytes, exactly as encoding/json converts it. Anything else — an
//     unknown, duplicate, upper-case or escaped key, null, a string, a
//     number out of range, a truncated body, bytes after the object —
//     is "not canonical", and the same buffered bytes go through
//     json.NewDecoder(...).Decode into the endpoint's tagged struct, as
//     they always did. The fast path therefore never rejects a body and
//     never words an error: what was accepted, refused and said before
//     is accepted, refused and said identically, by construction.
//   - Answers. WriteAnswer and WriteShardAnswer append an untraced
//     match list with strconv (encoding/json's exact float format) into
//     a pooled buffer and write it once with Content-Length. They
//     decline — and the caller encodes with encoding/json — when a
//     distance is not a JSON number; traced answers always take
//     encoding/json.
//
// Which path runs is decided by the bytes alone, never by an option.
// FuzzDecodeRequest and TestAppendMatchesMatchesStdlib hold the two
// fast paths to the reference.
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

// MaxBodyBytes bounds a request body. /append legitimately carries
// long value arrays, so the bound is generous; past it the answer is
// 413 and the connection closes.
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
// both socket layers decodes.
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
	body, err := readBody(w, r, *p)
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

// readBody appends the whole request body to buf, refusing one longer
// than MaxBodyBytes — up front when the client declared its length.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	if r.ContentLength > MaxBodyBytes {
		return buf, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	// Room for the declared length plus the read that reports EOF; for
	// an undeclared one (-1), enough that the first reads are not tiny.
	if n := max(int(r.ContentLength)+1, 512); n > cap(buf) {
		buf = make([]byte, 0, n)
	}
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
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
	b, ok := appendMatches(b, ms, true)
	if ok {
		b = append(b, "}\n"...)
		writeBody(w, b)
	}
	putBuf(p, b)
	return ok
}

// WriteShardAnswer writes the shard RPC's untraced answer,
// {"matches":[{"start":S,"dist":D},...],"stats":{...}}: Dist always
// present, stats (the path's traversal counters, encoded by
// encoding/json) only when non-nil. It reports false, having written
// nothing, when a distance or stats has no JSON form.
func WriteShardAnswer(w http.ResponseWriter, ms []series.Match, stats any) bool {
	p := getBuf()
	b := append(*p, `{"matches":`...)
	b, ok := appendMatches(b, ms, false)
	if ok && stats != nil {
		sb, err := json.Marshal(stats)
		ok = err == nil
		b = append(append(b, `,"stats":`...), sb...)
	}
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
