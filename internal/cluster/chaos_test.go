package cluster_test

// Chaos is a fault-injecting http.RoundTripper for the cluster tests:
// it wraps a real transport and applies per-node rules — refuse
// connections, black-hole requests until the caller's context ends,
// delay by a fixed latency, or fail the first K requests and then
// recover. The differential failover tests drive it to prove that
// killing or wedging any single node mid-query still yields
// byte-identical answers. Faults are injected at the transport seam, so
// everything above it — the coordinator's retry, hedging, failover and
// liveness marking, and the real wire encoding — runs exactly as in
// production.

import (
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
	// would.
	Refuse bool
	// BlackHole holds every request until the request context ends —
	// the wedged-but-connected node, detectable only by timeout or a
	// hedged sibling.
	BlackHole bool
	// FailFirst fails the first K requests with ECONNREFUSED and lets
	// the rest through — the transient blip the transport-level retry
	// exists for.
	FailFirst int
	// Delay adds fixed latency before forwarding — the slow-but-alive
	// node whose tail hedging bounds.
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

// Hits returns how many requests targeted the host (faulted or not) —
// the observable the demotion test asserts on.
func (c *Chaos) Hits(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[host]
}

// Faults returns how many requests to the host were injected with a
// fault.
func (c *Chaos) Faults(host string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults[host]
}

// refusedErr mimics a dead listener: the same *net.OpError shape a
// real refused dial produces, so errors.Is(err, syscall.ECONNREFUSED)
// holds through the http.Client's wrapping — exactly what the
// transport-level retry and the failover path key on.
func refusedErr() error {
	return &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// RoundTrip implements http.RoundTripper.
func (c *Chaos) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	c.mu.Lock()
	c.hits[host]++
	e := c.rules[host]
	var rule ChaosRule
	fault := false
	if e != nil {
		rule = e.rule
		switch {
		case rule.Refuse, rule.BlackHole:
			fault = true
		case e.failsLeft > 0:
			e.failsLeft--
			fault = true
		}
		if fault {
			c.faults[host]++
		}
	}
	c.mu.Unlock()
	if e == nil {
		return c.base.RoundTrip(req)
	}
	switch {
	case rule.Refuse:
		return nil, refusedErr()
	case rule.BlackHole:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case fault: // FailFirst countdown
		return nil, refusedErr()
	}
	if rule.Delay > 0 {
		select {
		case <-time.After(rule.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return c.base.RoundTrip(req)
}
