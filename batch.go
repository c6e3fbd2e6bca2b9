package patree

import (
	"fmt"
	"sync"

	"github.com/patree/patree/internal/core"
)

// Batch stages many heterogeneous operations and admits them in one
// admission transaction, so a single caller goroutine can put the
// paper's queue depth in flight with one call instead of one ring
// hand-off (and one potential wakeup) per operation. The staged
// operations complete as a group: Wait returns once every one of them
// has finished.
//
// Usage: stage with Put/Get/... (each returns the operation's index),
// Commit (or TryCommit), Wait, read results by index, then Release. A
// released Batch must not be reused; call NewBatch again — it is
// pooled, so the steady state allocates nothing.
//
// A Batch is backend-agnostic: DB.NewBatch binds it to the embedded
// engine's admission rings, NewRemoteBatch to a BatchCommitter (the
// network client). Staging records operations in a neutral form; the
// backend materializes them at commit time.
//
// Over a sharded DB the batch splits into per-shard sub-batches at
// commit: each shard receives its members as one contiguous ring
// transaction in staging order. Commit blocks per shard as needed;
// TryCommit reserves room on every shard before publishing anywhere, so
// it remains all-or-nothing — ErrBacklog means no shard admitted
// anything and the batch stays staged for a retry. Scans and syncs
// staged on a sharded batch fan out to every shard and their index
// reports the merged result.
//
// A Batch is not safe for concurrent use by multiple goroutines.
type Batch struct {
	db        *DB            // embedded backend (nil for remote batches)
	committer BatchCommitter // remote backend (nil for DB batches)
	// staged are the logical operations in staging order; handles[i] is
	// operation i's future.
	staged    []BatchOp
	handles   []*Handle
	committed bool
	// ops/shardIdx are the embedded backend's scratch: the physical
	// core operations materialized at commit (a logical scan/sync over N
	// shards becomes N physical ops behind one handle). Kept on the
	// batch so pooled reuse re-admits without allocating.
	ops      []*core.Op
	shardIdx []int
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// NewBatch returns an empty batch bound to db.
func (db *DB) NewBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.db = db
	b.committed = false
	return b
}

// stage records one logical operation and returns its index.
func (b *Batch) stage(op BatchOp) int {
	if b.committed {
		panic(fmt.Sprintf("patree: Batch.%s staged after Commit", op.Kind))
	}
	b.staged = append(b.staged, op)
	b.handles = append(b.handles, acquireHandle())
	return len(b.handles) - 1
}

// Put stages an insert-or-replace and returns its index. The value must
// not be mutated until the batch is committed and operation's result
// delivered.
func (b *Batch) Put(key uint64, value []byte) int {
	return b.stage(BatchOp{Kind: OpPut, Key: key, Value: value})
}

// Get stages a point lookup and returns its index.
func (b *Batch) Get(key uint64) int {
	return b.stage(BatchOp{Kind: OpGet, Key: key})
}

// Update stages a replace-if-present and returns its index.
func (b *Batch) Update(key uint64, value []byte) int {
	return b.stage(BatchOp{Kind: OpUpdate, Key: key, Value: value})
}

// Delete stages a delete and returns its index.
func (b *Batch) Delete(key uint64) int {
	return b.stage(BatchOp{Kind: OpDelete, Key: key})
}

// Scan stages a range scan over [lo, hi] (limit <= 0 = unlimited) and
// returns its index.
func (b *Batch) Scan(lo, hi uint64, limit int) int {
	return b.stage(BatchOp{Kind: OpScan, Key: lo, End: hi, Limit: limit})
}

// Sync stages a sync (of every shard) and returns its index.
func (b *Batch) Sync() int {
	return b.stage(BatchOp{Kind: OpSync})
}

// Len returns the number of staged (logical) operations.
func (b *Batch) Len() int { return len(b.handles) }

// SetSpan attaches a trace span id to staged operation i (0 clears it).
// The backend propagates it to the engine, which emits a link event
// tying its own operation record to the span — the hook a serving tier
// uses to stitch client, server and per-shard traces into one timeline.
// Must be called between staging and Commit.
func (b *Batch) SetSpan(i int, span uint64) {
	if b.committed {
		panic("patree: Batch.SetSpan after Commit")
	}
	if i < 0 || i >= len(b.staged) {
		panic(fmt.Sprintf("patree: Batch.SetSpan(%d) out of range [0,%d)", i, len(b.staged)))
	}
	b.staged[i].Span = span
}

// materialize builds the physical core operations for the embedded
// backend: one op per point operation, one op per shard behind a fanAgg
// for scans and syncs when sharded. The results land in b.ops and
// b.shardIdx (scratch, reused across pooled lifetimes).
func (b *Batch) materialize() {
	shards := len(b.db.shards)
	for i, so := range b.staged {
		h := b.handles[i]
		start := len(b.ops)
		switch so.Kind {
		case OpPut:
			b.addOp(core.AcquireOp().InitInsert(so.Key, so.Value), h, so.Key, shards)
		case OpGet:
			b.addOp(core.AcquireOp().InitSearch(so.Key), h, so.Key, shards)
		case OpUpdate:
			b.addOp(core.AcquireOp().InitUpdate(so.Key, so.Value), h, so.Key, shards)
		case OpDelete:
			b.addOp(core.AcquireOp().InitDelete(so.Key), h, so.Key, shards)
		case OpScan:
			if shards == 1 {
				op := core.AcquireOp().InitRange(so.Key, so.End, so.Limit)
				op.Done = h.doneFn
				b.ops = append(b.ops, op)
				b.shardIdx = append(b.shardIdx, 0)
			} else {
				lo, hi, limit := so.Key, so.End, so.Limit
				b.addFanned(h, shards,
					func() *core.Op { return core.AcquireOp().InitRange(lo, hi, limit) },
					func(rs []core.Result) core.Result { return mergeScan(rs, limit) })
			}
		case OpSync:
			if shards == 1 {
				op := core.AcquireOp().InitSync()
				op.Done = h.doneFn
				b.ops = append(b.ops, op)
				b.shardIdx = append(b.shardIdx, 0)
			} else {
				b.addFanned(h, shards,
					func() *core.Op { return core.AcquireOp().InitSync() },
					mergeFirstErr)
			}
		default:
			panic(fmt.Sprintf("patree: Batch staged invalid op kind %d", so.Kind))
		}
		if so.Span != 0 {
			// Every physical op materialized for this staged entry (one, or
			// one per shard for fanned scans/syncs) carries its span.
			for _, op := range b.ops[start:] {
				op.Span = so.Span
			}
		}
	}
}

// addOp appends one single-shard physical op routed by key.
func (b *Batch) addOp(op *core.Op, h *Handle, key uint64, shards int) {
	op.Done = h.doneFn
	si := 0
	if shards > 1 {
		si = core.ShardOf(key, shards)
	}
	b.ops = append(b.ops, op)
	b.shardIdx = append(b.shardIdx, si)
}

// addFanned appends one physical op per shard, aggregated behind h.
func (b *Batch) addFanned(h *Handle, shards int, mk func() *core.Op, merge func([]core.Result) core.Result) {
	agg := &fanAgg{h: h, res: make([]core.Result, shards), merge: merge}
	agg.remaining.Store(int32(shards))
	for i := 0; i < shards; i++ {
		op := mk()
		op.Done = agg.done(i)
		b.ops = append(b.ops, op)
		b.shardIdx = append(b.shardIdx, i)
	}
}

// dropOps releases materialized-but-unadmitted physical ops (a commit
// attempt that failed); the staged ops and handles remain intact for a
// retry.
func (b *Batch) dropOps() {
	for i, o := range b.ops {
		o.Release()
		b.ops[i] = nil
	}
	b.ops = b.ops[:0]
	b.shardIdx = b.shardIdx[:0]
}

// perShard splits the materialized physical ops by owning shard,
// preserving staging order within each shard.
func (b *Batch) perShard() [][]*core.Op {
	groups := make([][]*core.Op, len(b.db.shards))
	for i, op := range b.ops {
		si := b.shardIdx[i]
		groups[si] = append(groups[si], op)
	}
	return groups
}

// Commit admits every staged operation in order as one transaction per
// shard's admission ring. If a ring is full it blocks until that
// working thread frees space (backpressure; a remote batch retries
// transparently instead of blocking — see the client package). Commit
// may be called once; after it the batch only serves Wait, the
// accessors and Release.
func (b *Batch) Commit() error {
	if b.committed {
		panic("patree: Batch.Commit called twice")
	}
	if len(b.staged) == 0 {
		b.committed = true
		return nil
	}
	if b.committer != nil {
		return b.commitRemote(false)
	}
	db := b.db
	b.materialize()
	// Hot-shard weighting holds the commit back before the admission lock
	// is taken (a throttled producer must never delay Close).
	if db.gov != nil {
		if len(db.shards) == 1 {
			db.throttle(db.shards[0])
		} else {
			for si, ops := range b.perShard() {
				if len(ops) > 0 {
					db.throttle(db.shards[si])
				}
			}
		}
	}
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		b.dropOps()
		return ErrClosed
	}
	if len(db.shards) == 1 {
		db.shards[0].tree.AdmitBatch(b.ops)
	} else {
		for si, ops := range b.perShard() {
			if len(ops) > 0 {
				db.shards[si].tree.AdmitBatch(ops)
			}
		}
	}
	db.mu.RUnlock()
	b.finishCommit()
	return nil
}

// TryCommit is Commit without blocking: if the backend cannot accept
// the whole batch as one transaction right now it returns ErrBacklog
// and admits nothing anywhere — over a sharded DB, room is reserved on
// every shard before anything is published, and the reservations of the
// shards that had space are aborted when a later one is full. The batch
// stays staged and may be retried.
func (b *Batch) TryCommit() error {
	if b.committed {
		panic("patree: Batch.TryCommit after Commit")
	}
	if len(b.staged) == 0 {
		b.committed = true
		return nil
	}
	if b.committer != nil {
		return b.commitRemote(true)
	}
	db := b.db
	b.materialize()
	// A shard at its admission window refuses the whole batch up front —
	// same all-or-nothing contract as a full ring, reported as ErrBacklog.
	if db.gov != nil {
		for si, ops := range b.perShard() {
			if len(ops) > 0 && db.throttledNow(db.shards[si]) {
				b.dropOps()
				return ErrBacklog
			}
		}
	}
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		b.dropOps()
		return ErrClosed
	}
	if len(db.shards) == 1 {
		err := db.shards[0].tree.TryAdmitBatch(b.ops)
		db.mu.RUnlock()
		if err != nil {
			b.dropOps()
			return mapErr(err)
		}
		b.finishCommit()
		return nil
	}
	groups := b.perShard()
	reservations := make([]core.Reservation, len(groups))
	for si, ops := range groups {
		r, err := db.shards[si].tree.TryReserve(len(ops))
		if err != nil {
			for _, prev := range reservations[:si] {
				prev.Abort()
			}
			db.mu.RUnlock()
			b.dropOps()
			return mapErr(err)
		}
		reservations[si] = r
	}
	for si, ops := range groups {
		reservations[si].Publish(ops)
	}
	db.mu.RUnlock()
	b.finishCommit()
	return nil
}

// commitRemote delegates admission to the BatchCommitter. On error the
// batch stays staged (the committer resolved nothing); on success the
// committer owns delivery of every result.
func (b *Batch) commitRemote(try bool) error {
	resolve := make([]func(Result), len(b.handles))
	for i, h := range b.handles {
		resolve[i] = h.remoteResolve
	}
	if err := b.committer.CommitStaged(b.staged, resolve, try); err != nil {
		return err
	}
	b.finishCommit()
	return nil
}

// finishCommit drops the admitted ops: they are owned by the backend
// now and their results are delivered through the handles, so the batch
// must not keep references past this point.
func (b *Batch) finishCommit() {
	b.committed = true
	for i := range b.ops {
		b.ops[i] = nil
	}
	b.ops = b.ops[:0]
	b.shardIdx = b.shardIdx[:0]
	for i := range b.staged {
		b.staged[i] = BatchOp{}
	}
	b.staged = b.staged[:0]
}

// Wait blocks until every committed operation has completed and returns
// the first error among them in staging order (nil if all succeeded).
func (b *Batch) Wait() error {
	if !b.committed {
		panic("patree: Batch.Wait before Commit")
	}
	var first error
	for _, h := range b.handles {
		if err := h.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// handleAt guards the accessors: reading a result slot before Commit
// would block forever on a completion that can never be delivered, and
// an out-of-range index (including any index after Release) would read
// another operation's — or a recycled — slot. Both misuses fail loudly
// instead.
func (b *Batch) handleAt(what string, i int) *Handle {
	if i < 0 || i >= len(b.handles) {
		panic(fmt.Sprintf("patree: Batch.%s(%d) out of range [0,%d) — staged indexes are only valid between Commit and Release", what, i, len(b.handles)))
	}
	if !b.committed {
		panic(fmt.Sprintf("patree: Batch.%s(%d) before Commit — results exist only after the batch is committed", what, i))
	}
	return b.handles[i]
}

// Err waits for operation i and returns its error.
func (b *Batch) Err(i int) error { return b.handleAt("Err", i).Err() }

// Found waits for operation i and reports whether its key existed.
func (b *Batch) Found(i int) bool { return b.handleAt("Found", i).Found() }

// Value waits for operation i and returns its point-lookup value.
func (b *Batch) Value(i int) []byte { return b.handleAt("Value", i).Value() }

// Pairs waits for operation i and returns its range-scan results.
func (b *Batch) Pairs(i int) []KV { return b.handleAt("Pairs", i).Pairs() }

// Release waits for any committed operations, then returns the batch,
// its handles and any never-committed staged operations to their pools.
// Result slices previously returned by the accessors stay valid.
func (b *Batch) Release() {
	// A remote TryCommit that failed may have materialized nothing; an
	// embedded one released its physical ops already. Staged entries that
	// never committed are simply dropped — nothing is in flight.
	b.dropOps()
	for i := range b.staged {
		b.staged[i] = BatchOp{}
	}
	b.staged = b.staged[:0]
	for i, h := range b.handles {
		if b.committed {
			h.Release()
		} else {
			h.abandon()
		}
		b.handles[i] = nil
	}
	b.handles = b.handles[:0]
	b.db = nil
	b.committer = nil
	b.committed = false
	batchPool.Put(b)
}
