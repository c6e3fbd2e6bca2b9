package patree

import (
	"sync"
	"sync/atomic"

	"github.com/patree/patree/internal/core"
)

// Handle is the future for one asynchronous operation. The issuing
// goroutine owns it: Wait blocks until the working thread completes the
// operation, the accessors (Err, Found, Value, Pairs) wait implicitly,
// and Release returns the handle to the pool once the caller is done
// with the results. Results returned by the accessors remain valid after
// Release.
//
// A Handle is not safe for concurrent use by multiple goroutines; hand
// it off if another goroutine should wait. The one exception to the
// ownership rule is WaitContext returning the context's error: that
// detaches the handle — the working thread reclaims it when the
// operation eventually completes — and the caller must not touch it
// again (see DESIGN.md).
type Handle struct {
	ch    chan struct{}
	state atomic.Uint32
	res   core.Result
	// waited is owner-local: once the completion token is consumed the
	// accessors are pure field reads.
	waited bool
	// doneFn is the reusable completion callback handed to core.Op.Done;
	// built once per handle lifetime, it survives pool recycling so a
	// steady-state async operation allocates neither closure nor channel.
	doneFn func(*core.Op)
}

// Handle lifecycle states.
const (
	hPending uint32 = iota
	hCompleted
	hDetached
	// hReleased marks a handle that is back in (or on its way to) the
	// pool. It exists purely so misuse — touching a handle after Release
	// or after a WaitContext detach — fails with a descriptive panic
	// instead of a blocked Wait or a torn read of a recycled slot. The
	// detection is best-effort: a pooled reacquisition can win the race
	// with the misuser, but a correct program never observes this state.
	hReleased
)

var handlePool = sync.Pool{
	New: func() any { return &Handle{ch: make(chan struct{}, 1)} },
}

// acquireHandle returns a pooled handle ready for one operation.
func acquireHandle() *Handle {
	h := handlePool.Get().(*Handle)
	h.res = core.Result{}
	h.waited = false
	h.state.Store(hPending)
	// Defensive: a well-behaved lifecycle never leaves a token behind,
	// but a stale one would corrupt the next Wait.
	select {
	case <-h.ch:
	default:
	}
	if h.doneFn == nil {
		h.doneFn = h.complete
	}
	return h
}

// complete is the Done callback; it runs on the working thread. The
// operation is released back to its pool here — the tree drops all
// references before calling Done — and the result (whose slices are
// freshly allocated per operation, never pooled) moves to the handle.
func (h *Handle) complete(o *core.Op) {
	res := o.Res
	o.Release()
	h.deliver(res)
}

// deliver resolves the handle with res. It is the single fulfilment
// path: complete uses it for one-op handles, a fanAgg uses it after
// merging the per-shard results of a scattered operation.
func (h *Handle) deliver(res core.Result) {
	h.res = res
	h.res.Err = mapErr(h.res.Err)
	if h.state.CompareAndSwap(hPending, hCompleted) {
		h.ch <- struct{}{} // cap 1: never blocks the working thread
	} else {
		// Detached by a cancelled WaitContext: nobody will consume the
		// result, so the completion also recycles the handle.
		h.recycle()
	}
}

// Wait blocks until the operation completes and returns its error.
// It is idempotent: after the first return every further call (and every
// accessor) returns immediately.
func (h *Handle) Wait() error {
	if !h.waited {
		h.checkLive("Wait")
		<-h.ch
		h.waited = true
	}
	return h.res.Err
}

// checkLive panics descriptively when a handle that cannot deliver a
// result anymore — released, or detached by a cancelled WaitContext —
// is about to be waited on. Without it the misuse would block forever
// or tear a read against pool recycling.
func (h *Handle) checkLive(what string) {
	switch h.state.Load() {
	case hDetached:
		panic("patree: Handle." + what + " after WaitContext detach — a handle detached by cancellation is reclaimed by its completion and must not be touched")
	case hReleased:
		panic("patree: Handle." + what + " after Release")
	}
}

// Err waits and returns the operation error (nil on success).
func (h *Handle) Err() error { return h.Wait() }

// Found waits and reports whether the key existed (search, update,
// delete) or a previous value was replaced (insert).
func (h *Handle) Found() bool {
	h.Wait()
	return h.res.Found
}

// Value waits and returns the value found by a point search.
func (h *Handle) Value() []byte {
	h.Wait()
	return h.res.Value
}

// Pairs waits and returns a range scan's results.
func (h *Handle) Pairs() []KV {
	h.Wait()
	return h.res.Pairs
}

// Release waits for completion if necessary and returns the handle to
// the pool. The handle must not be used afterwards; previously returned
// result slices stay valid.
func (h *Handle) Release() {
	h.Wait()
	h.recycle()
}

// recycle returns h to the pool without waiting; the caller guarantees
// no completion is outstanding. The hReleased marker makes a subsequent
// touch by the former owner fail loudly (best-effort; see checkLive) —
// clearing waited here is what routes that touch through checkLive
// instead of the owner-local fast path, which would silently read the
// zeroed result.
func (h *Handle) recycle() {
	h.res = core.Result{}
	h.waited = false
	h.state.Store(hReleased)
	handlePool.Put(h)
}

// abandon recycles a handle whose operation was never admitted.
func (h *Handle) abandon() {
	h.waited = true
	h.recycle()
}

// admitAsync pairs op with a pooled handle and admits it on s. If the
// inbox ring is full this blocks until the working thread frees space
// (bounded-queue backpressure).
func (db *DB) admitAsync(s *shard, op *core.Op) (*Handle, error) {
	h := acquireHandle()
	op.Done = h.doneFn
	db.throttle(s)
	if err := db.admit(s, op); err != nil {
		h.abandon()
		return nil, err
	}
	return h, nil
}

// fanAgg aggregates one logical operation scattered across every shard
// into a single Handle: each shard's Done callback stores its result,
// and whichever callback finishes last merges them and delivers. The
// per-shard slots make the result deterministic regardless of
// completion order.
type fanAgg struct {
	h         *Handle
	remaining atomic.Int32
	res       []core.Result
	merge     func([]core.Result) core.Result
}

// done returns the Done callback for shard slot i.
func (a *fanAgg) done(i int) func(*core.Op) {
	return func(o *core.Op) {
		a.res[i] = o.Res
		o.Release()
		if a.remaining.Add(-1) == 0 {
			a.h.deliver(a.merge(a.res))
		}
	}
}

// fanOut admits one operation per shard (built by mk) under a single
// admission-lock hold, returning the aggregated future. Holding the
// lock across all admissions makes the fan-out atomic against Close:
// either every shard receives its piece or none does.
func (db *DB) fanOut(mk func() *core.Op, merge func([]core.Result) core.Result) (*Handle, error) {
	h := acquireHandle()
	agg := &fanAgg{h: h, res: make([]core.Result, len(db.shards)), merge: merge}
	agg.remaining.Store(int32(len(db.shards)))
	ops := make([]*core.Op, len(db.shards))
	for i := range ops {
		op := mk()
		op.Done = agg.done(i)
		ops[i] = op
	}
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		for _, op := range ops {
			op.Release()
		}
		h.abandon()
		return nil, ErrClosed
	}
	for i, s := range db.shards {
		s.tree.Admit(ops[i])
	}
	db.mu.RUnlock()
	return h, nil
}

// resolvedHandle wraps an already-computed result (an optimistic read
// served outside the pipeline) in a pooled handle so the async and
// context APIs keep one uniform shape. The handle is born completed:
// deliver runs before the caller ever sees it, so Wait returns without
// blocking.
func resolvedHandle(res core.Result) *Handle {
	h := acquireHandle()
	h.deliver(res)
	return h
}

// PutAsync admits an insert-or-replace and returns its future.
func (db *DB) PutAsync(key uint64, value []byte) (*Handle, error) {
	return db.admitAsync(db.shardFor(key), core.AcquireOp().InitInsert(key, value))
}

// GetAsync admits a point lookup and returns its future. With
// Options.ConcurrentReads a lookup the optimistic read path can serve is
// answered immediately: the returned handle is already resolved and its
// Wait will not block.
func (db *DB) GetAsync(key uint64) (*Handle, error) {
	if db.concReads {
		if res, ok := db.tryConcGet(key); ok {
			return resolvedHandle(res), nil
		}
	}
	return db.admitAsync(db.shardFor(key), core.AcquireOp().InitSearch(key))
}

// UpdateAsync admits a replace-if-present and returns its future.
func (db *DB) UpdateAsync(key uint64, value []byte) (*Handle, error) {
	return db.admitAsync(db.shardFor(key), core.AcquireOp().InitUpdate(key, value))
}

// DeleteAsync admits a delete and returns its future.
func (db *DB) DeleteAsync(key uint64) (*Handle, error) {
	return db.admitAsync(db.shardFor(key), core.AcquireOp().InitDelete(key))
}

// ScanAsync admits a range scan over [lo, hi] (limit <= 0 = unlimited)
// and returns its future. Across shards it scatters one scan per shard
// — each with the full limit, since any single shard could own the
// first limit keys of the range — and merges on completion.
func (db *DB) ScanAsync(lo, hi uint64, limit int) (*Handle, error) {
	if db.concReads {
		if res, ok := db.tryConcScan(lo, hi, limit); ok {
			return resolvedHandle(res), nil
		}
	}
	if len(db.shards) == 1 {
		return db.admitAsync(db.shards[0], core.AcquireOp().InitRange(lo, hi, limit))
	}
	return db.fanOut(
		func() *core.Op { return core.AcquireOp().InitRange(lo, hi, limit) },
		func(rs []core.Result) core.Result { return mergeScan(rs, limit) },
	)
}

// SyncAsync admits a sync (on every shard) and returns its future.
func (db *DB) SyncAsync() (*Handle, error) {
	if len(db.shards) == 1 {
		return db.admitAsync(db.shards[0], core.AcquireOp().InitSync())
	}
	return db.fanOut(
		func() *core.Op { return core.AcquireOp().InitSync() },
		mergeFirstErr,
	)
}
