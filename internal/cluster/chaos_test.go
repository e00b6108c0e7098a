package cluster_test

// Chaos is a fault-injecting http.RoundTripper for the cluster tests:
// it wraps a real transport and applies per-node rules — refuse
// connections, black-hole requests until the caller gives up, delay by
// a fixed latency, or fail the first K requests and then recover. The
// differential failover tests drive it to prove that killing or wedging
// any single node mid-query still yields byte-identical answers.
// Refuse acts on every request the transport carries — a /healthz probe
// or a stream's Upgrade — and on every frame of a stream already open,
// which it resets, as a node's death does. The other faults act per
// frame on the streams it opens: Chaos wraps each 101 answer's stream,
// and the coordinator writes each request frame in one Write. Faults
// are injected at the transport seam, so everything above it — the
// coordinator's retry, hedging, failover and liveness marking, and the
// real wire encoding — runs exactly as in production.

import (
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// ChaosRule is the fault policy for one node (keyed by host:port).
// Exactly one behavior applies per request, checked in field order;
// the zero rule passes requests through untouched.
type ChaosRule struct {
	// Refuse fails every request with ECONNREFUSED, as a dead listener
	// would, and resets every open stream at its next frame.
	Refuse bool
	// BlackHole swallows every frame and holds its answer until the
	// caller closes the stream — the wedged-but-connected node,
	// detectable only by timeout or a hedged sibling.
	BlackHole bool
	// FailFirst resets the stream at each of the first K frames and lets
	// the rest through — the transient blip the retry on a fresh stream
	// exists for.
	FailFirst int
	// Delay adds fixed latency before forwarding each frame — the
	// slow-but-alive node whose tail hedging bounds.
	Delay time.Duration
}

// Chaos implements http.RoundTripper. The zero value is not usable;
// construct with NewChaos. Safe for concurrent use.
type Chaos struct {
	base http.RoundTripper

	mu     sync.Mutex
	rules  map[string]*chaosEntry
	hits   map[string]int
	faults map[string]int
}

type chaosEntry struct {
	rule      ChaosRule
	failsLeft int // FailFirst countdown
}

// NewChaos wraps base (nil selects http.DefaultTransport).
func NewChaos(base http.RoundTripper) *Chaos {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Chaos{
		base:  base,
		rules: map[string]*chaosEntry{}, hits: map[string]int{}, faults: map[string]int{},
	}
}

// Set installs the fault rule for one host:port, replacing any
// previous rule (and resetting its FailFirst countdown).
func (c *Chaos) Set(host string, rule ChaosRule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules[host] = &chaosEntry{rule: rule, failsLeft: rule.FailFirst}
}

// Clear removes the rule for one host:port; requests pass through
// again.
func (c *Chaos) Clear(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.rules, host)
}

// Hits returns how many requests and frames targeted the host
// (faulted or not) — the observable the demotion test asserts on.
func (c *Chaos) Hits(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[host]
}

// Faults returns how many requests and frames to the host were
// injected with a fault.
func (c *Chaos) Faults(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults[host]
}

// refusedErr mimics a dead listener: the same *net.OpError shape a
// real refused dial produces, so errors.Is(err, syscall.ECONNREFUSED)
// holds through the http.Client's wrapping — exactly what the retry
// and the failover path key on.
func refusedErr() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// hit counts one request or frame to host and returns the rule that
// applies to it, fault reporting whether it is to fail. frame selects
// the per-frame faults; a request only ever fails under Refuse.
func (c *Chaos) hit(host string, frame bool) (rule ChaosRule, fault bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits[host]++
	e := c.rules[host]
	if e == nil {
		return rule, false
	}
	rule = e.rule
	switch {
	case rule.Refuse:
		fault = true
	case !frame:
	case rule.BlackHole:
		fault = true
	case e.failsLeft > 0:
		e.failsLeft--
		fault = true
	}
	if fault {
		c.faults[host]++
	}
	return rule, fault
}

// RoundTrip implements http.RoundTripper.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	if _, fault := c.hit(host, false); fault {
		return nil, refusedErr()
	}
	resp, err := c.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusSwitchingProtocols {
		resp.Body = &chaosStream{ReadWriteCloser: resp.Body.(io.ReadWriteCloser), c: c, host: host,
			closed: make(chan struct{})}
	}
	return resp, err
}

// chaosStream applies its host's rule to each frame written to it.
type chaosStream struct {
	io.ReadWriteCloser
	c    *Chaos
	host string

	once   sync.Once
	closed chan struct{}
	held   bool // a frame was black-holed: reads wait for the close
}

func (s *chaosStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.ReadWriteCloser.Close()
}

func (s *chaosStream) Write(p []byte) (int, error) {
	rule, fault := s.c.hit(s.host, true)
	switch {
	case fault && rule.BlackHole:
		s.held = true
		return len(p), nil
	case fault:
		s.Close()
		return 0, &net.OpError{Op: "write", Net: "tcp", Err: syscall.ECONNRESET}
	case rule.Delay > 0:
		select {
		case <-time.After(rule.Delay):
		case <-s.closed:
			return 0, net.ErrClosed
		}
	}
	return s.ReadWriteCloser.Write(p)
}

func (s *chaosStream) Read(p []byte) (int, error) {
	if s.held {
		<-s.closed
		return 0, net.ErrClosed
	}
	return s.ReadWriteCloser.Read(p)
}
