package cluster

import "context"

// SetHook installs hook as h's frame-level seam: it stands in for
// answering each request — holding it, calling answer (which runs the
// request and returns its envelope), or returning bytes of its own,
// written in the envelope's place. Set it before h serves.
func SetHook(h *NodeRPC, hook func(ctx context.Context, q *Request, answer func() []byte) []byte) {
	h.hook = hook
}
