package patree

import (
	"context"

	"github.com/patree/patree/internal/core"
)

// WaitContext blocks until the operation completes or ctx is done,
// whichever comes first.
//
// If it returns nil or an operation error, the handle is still owned by
// the caller exactly as after Wait. If it returns the context's error,
// the handle has been detached: the operation is NOT cancelled — it is
// already in flight on the working thread and completes there, keeping
// the tree consistent — but its result is discarded and the handle is
// reclaimed by the completion. After a detach the caller must not call
// any method on the handle (no Release either; reclamation is the
// completion's job).
func (h *Handle) WaitContext(ctx context.Context) error {
	if h.waited {
		return h.res.Err
	}
	h.checkLive("WaitContext")
	select {
	case <-h.ch:
		h.waited = true
		return h.res.Err
	case <-ctx.Done():
		if h.state.CompareAndSwap(hPending, hDetached) {
			// Ownership transferred to the completion callback.
			return ctx.Err()
		}
		// The operation completed concurrently with cancellation; the
		// token is (or is about to be) in the channel, so report the real
		// outcome rather than a spurious cancellation.
		<-h.ch
		h.waited = true
		return h.res.Err
	}
}

// execContext is exec with cancellation: on ctx expiry the call returns
// immediately with the context's error while the operation (possibly
// fanned out across shards) finishes — and is discarded — on the
// working threads. admit builds and admits the operation(s), returning
// the future; it is a closure so nothing is allocated or admitted when
// the context is already dead.
func (db *DB) execContext(ctx context.Context, admit func() (*Handle, error)) (core.Result, error) {
	if err := ctx.Err(); err != nil {
		return core.Result{}, err
	}
	h, err := admit()
	if err != nil {
		return core.Result{}, err
	}
	if err := h.WaitContext(ctx); err != nil {
		if h.waited {
			// Operation error; handle still owned.
			res := h.res
			h.recycle()
			return res, err
		}
		// Detached on cancellation; the completion recycles the handle.
		return core.Result{}, err
	}
	res := h.res
	h.recycle()
	return res, nil
}

// PutContext is Put unblocking on ctx cancellation.
func (db *DB) PutContext(ctx context.Context, key uint64, value []byte) error {
	_, err := db.execContext(ctx, func() (*Handle, error) { return db.PutAsync(key, value) })
	return err
}

// GetContext is Get unblocking on ctx cancellation.
func (db *DB) GetContext(ctx context.Context, key uint64) ([]byte, bool, error) {
	res, err := db.execContext(ctx, func() (*Handle, error) { return db.GetAsync(key) })
	return res.Value, res.Found, err
}

// UpdateContext is Update unblocking on ctx cancellation.
func (db *DB) UpdateContext(ctx context.Context, key uint64, value []byte) (bool, error) {
	res, err := db.execContext(ctx, func() (*Handle, error) { return db.UpdateAsync(key, value) })
	return res.Found, err
}

// DeleteContext is Delete unblocking on ctx cancellation.
func (db *DB) DeleteContext(ctx context.Context, key uint64) (bool, error) {
	res, err := db.execContext(ctx, func() (*Handle, error) { return db.DeleteAsync(key) })
	return res.Found, err
}

// ScanContext is Scan unblocking on ctx cancellation.
func (db *DB) ScanContext(ctx context.Context, lo, hi uint64, limit int) ([]KV, error) {
	res, err := db.execContext(ctx, func() (*Handle, error) { return db.ScanAsync(lo, hi, limit) })
	return res.Pairs, err
}

// SyncContext is Sync unblocking on ctx cancellation. Note that a
// cancelled SyncContext does not undo the flush: it proceeds on the
// working thread(s).
func (db *DB) SyncContext(ctx context.Context) error {
	_, err := db.execContext(ctx, func() (*Handle, error) { return db.SyncAsync() })
	return err
}
