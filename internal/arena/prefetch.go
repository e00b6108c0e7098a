package arena

import "runtime"

// DefaultTouchLimit bounds Prefetch's sequential touch pass: enough to
// pull a typical index's hot prefix through the page cache quickly,
// small enough that warming a huge mapping cannot stall an open for
// long. Callers wanting a full warm pass the region length instead.
const DefaultTouchLimit = 64 << 20

// Prefetch warms a mapped region against the page-fault tail that
// follows a zero-copy open: it advises the kernel the whole region will
// be needed (madvise(MADV_WILLNEED) where available — a hint, applied
// best-effort) and then touches one byte per page sequentially, up to
// limit bytes (≤ 0 selects DefaultTouchLimit), forcing that prefix
// resident immediately. Heap-backed arenas are already resident, so
// only the (cheap) touch runs. Returns the number of bytes spanned by
// the touch pass. Safe to call on several arenas at once.
func (a *Arena) Prefetch(limit int) int {
	if len(a.buf) == 0 {
		return 0
	}
	if a.mapped {
		advise(a.buf)
	}
	if limit <= 0 {
		limit = DefaultTouchLimit
	}
	if limit > len(a.buf) {
		limit = len(a.buf)
	}
	const page = 4096
	var sink byte
	for off := 0; off < limit; off += page {
		sink ^= a.buf[off]
	}
	runtime.KeepAlive(sink) // the loads are the point: keep them observable
	return limit
}
