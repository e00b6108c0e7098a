package cluster_test

// The stream under the shard RPC: a node's drain waits for the requests
// its streams carry, and arbitrary bytes on a stream, either way, fail
// loudly and cheaply.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/wire"
)

// raw is Stream.Exchange's frame appender for a frame already in bytes.
func raw(frame []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, frame...) }
}

// rawStream upgrades a raw connection to the node at base, for writing
// bytes no Stream would.
func rawStream(t testing.TB, base string) (net.Conn, *bufio.Reader) {
	t.Helper()
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "GET "+cluster.StreamPath+" HTTP/1.1\r\nHost: "+u.Host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+cluster.StreamProtocol+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	return conn, br
}

// TestDrainWaitsForStreams: http.Server.Shutdown neither closes nor
// waits for the shard RPC's streams, so a node waits on
// NodeRPC.Drained before it unmaps. A request held mid-query during the
// drain keeps Drained from returning until it has answered — from the
// still-mapped arena, exactly — while the idle stream is closed at
// BeginDrain, a new stream is refused, and a frame that arrives on the
// open stream afterwards is answered 503. A request held past the
// drain's deadline makes Drained return the deadline's error instead of
// hanging.
func TestDrainWaitsForStreams(t *testing.T) {
	ext := series.NewExtractor(datasets.EEGN(93, 1500), series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	q := ext.ExtractCopy(321, testL)
	want, _ := local.SearchStats(q, 0.3)
	frame := (&cluster.Request{Kind: cluster.KindSearch, Eps: 0.3, Query: q}).AppendFrame(nil)
	ctx := context.Background()

	// node opens a mapped node over every shard whose requests each
	// wait on hold once they are in flight.
	node := func(hold <-chan struct{}) (*cluster.Node, *cluster.NodeRPC, *nodeServer, <-chan struct{}) {
		topo := &cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{{Name: "n0", Addr: "http://unused", Shards: []int{0, 1, 2, 3}}}}
		n, err := cluster.OpenNode(topo, "n0", ext, cluster.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := cluster.NewNodeRPC(n)
		entered := make(chan struct{}, 4)
		cluster.SetHook(h, func(ctx context.Context, q *cluster.Request, answer func() []byte) []byte {
			entered <- struct{}{}
			<-hold
			return answer()
		})
		return n, h, newNodeServer(t, h), entered
	}

	release := make(chan struct{})
	n, h, srv, entered := node(release)
	busy, err := cluster.DialStream(ctx, http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := cluster.DialStream(ctx, http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	held := make(chan result, 1)
	go func() {
		status, body, err := busy.Exchange(ctx, raw(frame))
		held <- result{status, bytes.Clone(body), err}
	}()
	<-entered
	h.BeginDrain()

	// Shutdown's order: wait for the streams, then unmap.
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		err := h.Drained(dctx)
		if err == nil {
			err = n.Close()
		}
		drained <- err
	}()
	if _, _, err := idle.Exchange(ctx, raw(frame)); err == nil {
		t.Error("the stream idle at BeginDrain still answers")
	}
	if _, err := cluster.DialStream(ctx, http.DefaultClient, srv.URL); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("a stream opened while draining: %v, want refused as draining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drained returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	r := <-held
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("held request: %d %q, %v", r.status, r.body, r.err)
	}
	if a, err := cluster.ParseAnswer(r.body); err != nil || !sameMatches(want, a.Matches) {
		t.Fatalf("held request answered %d matches, %v; want %d", len(a.Matches), err, len(want))
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	status, body, err := busy.Exchange(ctx, raw(frame))
	if err != nil || status != http.StatusServiceUnavailable || string(body) != `{"error":"server is draining for shutdown"}` {
		t.Fatalf("a frame after the drain: %d %s, %v; want 503", status, body, err)
	}
	busy.Close()
	idle.Close()

	// Held past the deadline: Drained gives up when it is told to.
	hold := make(chan struct{})
	n2, h2, srv2, entered2 := node(hold)
	st, err := cluster.DialStream(ctx, http.DefaultClient, srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	go st.Exchange(ctx, raw(frame))
	<-entered2
	h2.BeginDrain()
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := h2.Drained(dctx); !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > 5*time.Second {
		t.Errorf("Drained with a request held past the deadline: %v after %v", err, time.Since(start))
	}
	close(hold)
	if err := h2.Drained(ctx); err != nil {
		t.Fatal(err)
	}
	n2.Close()
}

// hostileAnswers serves every stream to one host from the bytes *data
// holds when the stream opens: the stream's first request frame
// vanishes, its reads return the bytes, then the stream's end, and a
// second frame is reset. Other requests go to base.
type hostileAnswers struct {
	base http.RoundTripper
	host string
	data *[]byte
}

func (h hostileAnswers) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host != h.host || req.URL.Path != cluster.StreamPath {
		return h.base.RoundTrip(req)
	}
	return &http.Response{StatusCode: http.StatusSwitchingProtocols, Status: "101 Switching Protocols",
		Header: http.Header{}, Request: req, Body: &hostileStream{Reader: bytes.NewReader(*h.data)}}, nil
}

type hostileStream struct {
	*bytes.Reader
	written bool
}

func (s *hostileStream) Write(p []byte) (int, error) {
	if s.written {
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	}
	s.written = true
	return len(p), nil
}

func (*hostileStream) Close() error { return nil }

// FuzzStreamEnvelope: arbitrary bytes on a stream, both ways. As a
// node's answer — a stream that carries data, then ends — they fail the
// attempt over, so the query answers exactly from the sibling, and mark
// the node down in the client's words, with no panic and no allocation
// of a declared length that never arrives; only a well-formed envelope
// of a well-formed answer frame is taken. As a request stream, whatever
// the node writes back is well-formed envelopes of the protocol's
// statuses, and a first declared length past the limit is answered 413,
// after which the stream ends.
func FuzzStreamEnvelope(f *testing.F) {
	ext := series.NewExtractor(datasets.EEGN(95, 1200), series.NormGlobal)
	local, path := buildSaved(f, ext, 4)
	q := ext.ExtractCopy(500, testL)
	want, _ := local.SearchStats(q, 0.3)
	_, srvs := startClusterB(f, ext, path, [][]int{{0, 1, 2, 3}}, 2, cluster.Options{RefreshInterval: -1}, nil)
	topo := &cluster.Topology{Index: path, Replicas: 2, Nodes: []cluster.NodeSpec{
		{Name: "g0r0", Addr: srvs[0].URL, Shards: []int{0, 1, 2, 3}},
		{Name: "g0r1", Addr: srvs[1].URL, Shards: []int{0, 1, 2, 3}}}}
	var data []byte // the current input, as g0r0's answer
	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, cluster.Options{RefreshInterval: -1,
		Client: &http.Client{Transport: hostileAnswers{http.DefaultTransport, strings.TrimPrefix(srvs[0].URL, "http://"), &data}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cl.Close() })

	request := (&cluster.Request{Kind: cluster.KindSearch, Eps: 0.3, Query: q}).AppendFrame(nil)
	answer := (&cluster.Answer{Matches: want}).AppendFrame(nil)
	for _, seed := range [][]byte{
		nil,
		envelope(200, answer),
		envelope(200, answer)[:20],
		envelope(400, []byte(`{"error":"no"}`)),
		envelope(503, nil),
		envelope(302, nil),
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 200), wire.MaxBodyBytes+1),
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 200), wire.MaxBodyBytes),
		append(binary.LittleEndian.AppendUint32(nil, uint32(len(request))), request...),
		binary.LittleEndian.AppendUint32(nil, wire.MaxBodyBytes+1),
	} {
		f.Add(seed)
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, in []byte) {
		// The bytes as g0r0's answer; the sweep puts g0r0 back in front.
		data = in
		cl.Sweep(ctx)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := cl.Search(ctx, q, 0.3)
		runtime.ReadMemStats(&after)
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) >= 8<<20 && after.TotalAlloc-before.TotalAlloc > 4<<20 {
			t.Fatalf("a %d-byte answer declaring %d bytes allocated %d", len(data),
				binary.LittleEndian.Uint32(data[4:]), after.TotalAlloc-before.TotalAlloc)
		}
		if n := uint64(len(data)); n >= 8 && binary.LittleEndian.Uint32(data) == 200 &&
			uint64(binary.LittleEndian.Uint32(data[4:])) <= n-8 {
			if _, perr := cluster.ParseAnswer(data[8 : 8+binary.LittleEndian.Uint32(data[4:])]); perr == nil {
				if err != nil {
					t.Fatalf("a well-formed answer was refused: %v", err)
				}
				return // taken, as a well-formed answer is
			}
		}
		if err != nil || !sameMatches(want, got) {
			t.Fatalf("%d matches, %v; want %d", len(got), err, len(want))
		}
		if p := cl.Health()[0]; p.Alive || !strings.HasPrefix(p.Error, "shard search: ") {
			t.Fatalf("hostile node %+v, want down with the client's words", p)
		}

		// The bytes as a coordinator's requests.
		conn, br := rawStream(t, srvs[1].URL)
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		for i := 0; ; i++ {
			var hdr [8]byte
			if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("answer %d: %v", i, err)
			}
			status, n := binary.LittleEndian.Uint32(hdr[:]), binary.LittleEndian.Uint32(hdr[4:])
			if status != 200 && status != 400 && status != 413 && status != 503 || n > wire.MaxBodyBytes {
				t.Fatalf("answer %d: status %d, %d bytes", i, status, n)
			}
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				t.Fatalf("answer %d: %v", i, err)
			}
			if i == 0 && len(data) >= 4 && binary.LittleEndian.Uint32(data) > wire.MaxBodyBytes {
				if status != 413 {
					t.Fatalf("a first declared length %d answered %d", binary.LittleEndian.Uint32(data), status)
				}
				if _, err := br.ReadByte(); err != io.EOF {
					t.Fatalf("the stream runs on after a 413: %v", err)
				}
				break
			}
		}
	})
}
