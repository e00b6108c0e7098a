package wire

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fill is an endless body of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

func TestReadRequest(t *testing.T) {
	post := func(body io.Reader) *http.Request { return httptest.NewRequest(http.MethodPost, "/search", body) }
	declared := post(strings.NewReader(`{"query":[1],"eps":1}`))
	declared.ContentLength = MaxBodyBytes + 1 // refused before a byte is read
	for _, tc := range []struct {
		name   string
		req    *http.Request
		status int
		body   string
	}{
		{"canonical", post(strings.NewReader(`{"query":[1,2],"eps":0.5}`)), 0, ""},
		{"fallback", post(strings.NewReader(`{"QUERY":[1,2],"eps":0.5,"x":null} `)), 0, ""},
		{"streamed", post(io.MultiReader(strings.NewReader(`{"query":[1,`), strings.NewReader(`2],"eps":0.5}`))), 0, ""},
		{"at the limit", post(io.LimitReader(io.MultiReader(strings.NewReader(`{"query":[1,2],"eps":0.5}`), fill(' ')), MaxBodyBytes)), 0, ""},
		{"get", httptest.NewRequest(http.MethodGet, "/search", nil), 405, `{"error":"POST required"}`},
		{"empty", post(strings.NewReader("")), 400, `{"error":"bad request body: EOF"}`},
		{"truncated", post(strings.NewReader(`{"query":[1,2`)), 400, `{"error":"bad request body: unexpected EOF"}`},
		{"syntax", post(strings.NewReader(`{"query":[1,,2]}`)), 400, `{"error":"bad request body: invalid character ',' looking for beginning of value"}`},
		{"type", post(strings.NewReader(`{"query":"x"}`)), 400, `{"error":"bad request body: json: cannot unmarshal string into Go struct field searchBody.query of type []float64"}`},
		{"declared over the limit", declared, 413, `{"error":"bad request body: http: request body too large"}`},
		{"streamed over the limit", post(io.LimitReader(fill('0'), MaxBodyBytes+1)), 413, `{"error":"bad request body: http: request body too large"}`},
	} {
		var req searchBody
		rec := httptest.NewRecorder()
		ok := ReadRequest(rec, tc.req, &req, Fields{Query: &req.Query, Eps: &req.Eps}, 2)
		if tc.status == 0 {
			if !ok || rec.Body.Len() != 0 || !sameFloats(req.Query, []float64{1, 2}) || req.Eps != 0.5 {
				t.Errorf("%s: ok=%v wrote %q decoded %+v", tc.name, ok, rec.Body.String(), req)
			}
			continue
		}
		if ok || rec.Code != tc.status || rec.Body.String() != tc.body+"\n" {
			t.Errorf("%s: ok=%v status %d body %q, want %d %q", tc.name, ok, rec.Code, rec.Body.String(), tc.status, tc.body)
		}
	}
}
