// Package obsflow exercises the obsflow analyzer: exported *Ctx entry
// points that start a span must end it on every return path.
package obsflow

import (
	"context"

	"obs"
)

// SearchCtx defers the End immediately — the blessed shape.
func SearchCtx(ctx context.Context) error {
	ctx, sp := obs.StartSpan(ctx, "search")
	defer sp.End()
	if ctx == nil {
		return nil
	}
	return nil
}

// StatsCtx ends the span explicitly before each return — also fine.
func StatsCtx(ctx context.Context) (int, error) {
	ctx, sp := obs.StartSpan(ctx, "stats")
	if ctx == nil {
		sp.End()
		return 0, nil
	}
	sp.Set("path", "stats")
	sp.End()
	return 1, nil
}

// TopKCtx starts a child off the incoming span and defers the End.
func TopKCtx(ctx context.Context) error {
	child := obs.SpanFrom(ctx).StartChild("topk")
	defer child.End()
	return nil
}

// BorrowCtx binds the caller's span: SpanFrom starts nothing, and the
// caller ends what it started.
func BorrowCtx(ctx context.Context) error {
	sp := obs.SpanFrom(ctx)
	sp.Set("k", 1)
	if ctx == nil {
		return nil
	}
	return nil
}

// BorrowedChildCtx starts a child of a borrowed span and never ends it.
func BorrowedChildCtx(ctx context.Context) error {
	sp := obs.SpanFrom(ctx)
	child := sp.StartChild("child") // want `span "child" started in exported BorrowedChildCtx is not ended on every return path`
	child.Set("k", 1)
	return nil
}

// LeakyCtx returns early without ending the span.
func LeakyCtx(ctx context.Context) error {
	ctx, sp := obs.StartSpan(ctx, "leaky") // want `span "sp" started in exported LeakyCtx is not ended on every return path`
	if ctx == nil {
		return nil
	}
	sp.End()
	return nil
}

// OrphanCtx starts a child and never ends it at all.
func OrphanCtx(ctx context.Context) {
	child := obs.SpanFrom(ctx).StartChild("orphan") // want `span "child" started in exported OrphanCtx is not ended on every return path`
	child.Set("k", 1)
}

// DroppedCtx discards the span outright.
func DroppedCtx(ctx context.Context) {
	_, _ = obs.StartSpan(ctx, "dropped") // want `span discarded with _ in exported DroppedCtx`
}

// ClosureCtx hands span lifecycle to a closure: returns inside the
// literal are not entry-point return paths, and the deferred End inside
// it still counts for nothing — the outer defer is what satisfies the
// check.
func ClosureCtx(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "closure")
	defer sp.End()
	f := func() error {
		inner := sp.StartChild("inner")
		defer inner.End()
		return nil
	}
	return f()
}

// helperCtx is unexported: out of scope even when it leaks.
func helperCtx(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "helper")
	_ = sp
}

// Search is exported but not a *Ctx entry point: out of scope.
func Search(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "plain")
	_ = sp
}
