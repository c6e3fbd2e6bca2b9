// Package patree is a polled-mode, asynchronous B+ tree for NVMe-class
// storage, reproducing "PA-Tree: Polled-Mode Asynchronous B+ Tree for
// NVMe" (ICDE 2020).
//
// A PA-Tree processes many index operations in an interleaved fashion on
// a single working thread: when an operation issues an I/O it parks, the
// thread moves on to other operations, and a workload-aware scheduler
// decides when to poll the device's completion queue. This keeps the
// device saturated with asynchronous I/O without the synchronization and
// context-switch costs of a thread-per-request design.
//
// This package is the embedder-facing API: it runs the tree on a real
// goroutine over a memory-backed queue-pair device and offers blocking
// calls that are safe from any goroutine. The deterministic simulation
// used to reproduce the paper's experiments lives under internal/ and is
// driven by cmd/paexp and the benchmarks.
//
//	db, err := patree.Open(patree.Options{})
//	defer db.Close()
//	db.Put(42, []byte("answer"))
//	v, ok, _ := db.Get(42)
//
// The blocking calls admit one operation and wait for it, so a single
// caller goroutine holds at most one operation in flight — the tree's
// pipeline stays empty and the device idle. To reach the paper's queue
// depths from few goroutines, use the asynchronous API: every operation
// has an Async variant returning a *Handle future, and a Batch admits
// many heterogeneous operations in one admission-ring transaction:
//
//	h := db.PutAsync(42, []byte("answer"))
//	// ... issue more work ...
//	err := h.Wait()
//	h.Release()
//
//	b := db.NewBatch()
//	for k := uint64(0); k < 128; k++ {
//		b.Get(k)
//	}
//	b.Commit()
//	b.Wait()
//	v, ok := b.Value(3), b.Found(3)
//	b.Release()
//
// Admission is bounded: when the inbox ring is full, Async calls and
// Batch.Commit block until space frees, while Batch.TryCommit returns
// ErrBacklog without admitting anything. Context-aware variants
// (GetContext, PutContext, ...) additionally unblock on cancellation;
// see DESIGN.md for the detach semantics.
//
// # Sharding
//
// Options.Shards > 1 hash-partitions the keyspace across that many
// independent PA-Tree workers, each with its own working thread, queue
// pair, inbox ring, buffer pool and (optional) journal region, all over
// disjoint partitions of one device. The public surface is unchanged:
// point operations route by key, Scan scatter-gathers and merge-sorts
// across shards under the global limit, Sync/Stats/Metrics/WriteTrace
// aggregate, and Batch.Commit splits into per-shard sub-batches
// (TryCommit reserves room on every shard before admitting anywhere, so
// it stays all-or-nothing). Shards: 0 or 1 is the paper's single-worker
// tree, byte-for-byte. See DESIGN.md §12.
package patree

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/probe"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/trace"
)

// MaxValueSize is the largest storable value (two max-size entries share
// one 512-byte node; see internal/storage).
const MaxValueSize = storage.MaxValueSize

// KV is a key/value pair returned by Scan.
type KV = core.KV

// Persistence selects the §III-C buffering mode.
type Persistence = core.Persistence

// Persistence modes.
const (
	// Strong writes every update through to the device before the
	// operation completes.
	Strong = core.StrongPersistence
	// Weak buffers updates in memory; call Sync to persist them.
	Weak = core.WeakPersistence
)

// Options configures Open.
type Options struct {
	// Device is the backing block device. Nil selects an in-memory
	// device sized by DeviceBlocks.
	Device nvme.Device
	// DeviceBlocks sizes the default in-memory device (default 1M blocks
	// = 512 MiB).
	DeviceBlocks uint64
	// Persistence selects Strong (default) or Weak buffering.
	Persistence Persistence
	// BufferPages is the total page-cache capacity (default 4096 pages =
	// 2 MiB), split evenly across shards when Shards > 1.
	BufferPages int
	// InboxDepth bounds each worker's admission ring (rounded up to a
	// power of two; default 4096). A full ring blocks Async calls and
	// Commit, and makes TryCommit return ErrBacklog.
	InboxDepth int
	// Format forces re-initialization even if the device already holds a
	// tree. Devices without a valid meta page are formatted only after
	// crash recovery fails to rebuild one from the redo journal.
	Format bool
	// Journal enables the redo journal: every mutation's page images are
	// appended to an on-device WAL and made durable before the operation
	// is acknowledged, so a crash loses no acknowledged write — Open
	// replays the journal on the next start. Under Weak persistence this
	// buys crash durability while pages stay buffered; under Strong it
	// closes the multi-page torn-update window. Log block writes are
	// pipelined: each shard keeps several journal blocks in flight, log
	// order and the durability watermark's contiguous prefix preserved.
	Journal bool
	// MaxIORetries bounds how many times one operation's failed device
	// command is retried (with exponential backoff) before the DB enters
	// the terminal ErrDeviceFailed state. 0 selects the default (3);
	// negative disables retries.
	MaxIORetries int
	// Trace enables the operation-lifecycle tracer: the working thread
	// records admission, queueing, latch, I/O and completion events into
	// a fixed ring, exported as Chrome trace-event JSON by WriteTrace
	// (viewable in Perfetto). Off by default; when off the hot path pays
	// only a nil check. Stage histograms (Metrics) are always collected.
	Trace bool
	// TraceEvents sizes the trace ring — the window of most recent events
	// retained per shard (default 65536, ≈48 B each). Ignored unless
	// Trace is set.
	TraceEvents int
	// Shards hash-partitions the keyspace across this many independent
	// workers over disjoint regions of the device (0 or 1 = the classic
	// single-worker tree). A device formatted with one shard layout
	// refuses to open under another: reformat or match the count.
	Shards int
	// Devices spreads the shards across several block devices instead of
	// one: shard i lives on a partition of Devices[Placement[i]] (or of
	// Devices[i mod len(Devices)] when Placement is nil), so shards on
	// different devices stop sharing one controller's interference
	// accounting — the Fig 3c ceiling that caps single-device scaling.
	// Mutually exclusive with Device; the DB never owns the devices.
	// Shards must be at least len(Devices) (every device hosts at least
	// one shard), and the formatted topology is stamped into each shard's
	// superblock: reopening with a different device count or order is
	// refused. A single-entry Devices is exactly the classic layout.
	Devices []nvme.Device
	// Placement maps shard index to device index (len must equal the
	// shard count; nil = round-robin). Ignored unless Devices is set.
	Placement []int
	// AdmissionWeighting turns on hot-shard adaptation for skewed
	// traffic: each shard's physical admission ring is allocated at twice
	// InboxDepth (heavy writers on a hot shard get the deeper ring), and
	// a per-shard AIMD governor watches the workers' queue-wait EWMAs,
	// imposing a soft admission window on a shard whose wait runs hot
	// relative to its peers (see core.Governor). Writes bound for a
	// throttled shard wait at admission (TryCommit reports ErrBacklog)
	// until the backlog drains, keeping the hot worker's in-engine
	// queue-wait within a bounded factor of the cold shards'; with
	// ConcurrentReads set, optimistically served gets bypass the window
	// entirely and still land on the hot shard. Off by default.
	AdmissionWeighting bool
	// ConcurrentReads lets Get/Scan (and their Async/Context variants) be
	// answered directly on the calling goroutine via an optimistic,
	// seqlock-validated B-link descent over pages the worker has
	// published, instead of queueing through the admission pipeline. The
	// worker remains the sole mutator; readers retry on version changes
	// and escape concurrent splits through right-sibling links. A read
	// whose key has a pending (admitted, unacknowledged) write falls back
	// to the pipeline, preserving read-your-writes per key; scans are
	// unordered with respect to concurrent point writes either way. Off
	// by default — the fast path adds worker-side publication work, and
	// deterministic simulation runs keep it off to stay byte-identical.
	ConcurrentReads bool
	// Pipelined enables scan sibling read-ahead (DESIGN.md §17): when a
	// range scan reaches the leaf level, its worker issues reads of the
	// next few leaves together instead of discovering each one from the
	// previous leaf's Next link. Read-ahead reads are bounded and dropped
	// if a write of the page intervenes. Semantics are identical either
	// way; off by default, and deterministic simulation runs keep it off
	// — read-ahead reshapes the simulated I/O schedule.
	Pipelined bool
}

// Stats reports tree activity, summed across shards.
type Stats struct {
	Ops          uint64
	NumKeys      uint64
	Height       int // tallest shard
	Probes       uint64
	ReadsIssued  uint64
	WritesIssued uint64
	// AdmitWaits counts admissions that found an inbox ring full and had
	// to back off — a sustained non-zero rate means callers outpace the
	// working threads and backpressure is engaging.
	AdmitWaits uint64
	BufferHit  float64
	// IOErrors counts device commands that completed with an error;
	// IORetries counts the bounded retries issued in response. A growing
	// gap between the two precedes the terminal ErrDeviceFailed state.
	IOErrors  uint64
	IORetries uint64
	// JournalAppends counts redo records appended to the WAL and
	// Checkpoints the completed journal truncations (both 0 unless
	// Options.Journal).
	JournalAppends uint64
	Checkpoints    uint64
	// Shards is the number of independent workers backing this DB (1 for
	// the classic single-worker tree) and Devices the number of block
	// devices they are spread over (1 unless Options.Devices named more).
	Shards  int
	Devices int
	// ThrottleWaits counts admissions the hot-shard governor held back
	// (0 unless Options.AdmissionWeighting; see ErrBacklog for the
	// non-blocking paths' behavior).
	ThrottleWaits uint64
	// Scan read-ahead reads (all 0 unless Options.Pipelined): reads
	// issued ahead of need, operations that coalesced onto one,
	// completions dropped because a write or another read got there
	// first, and installs nobody was waiting for. Hits vs issued is how
	// often read-ahead was on the critical path; cancelled+wasted vs
	// issued is the overhead it cost the device.
	SpecIssued    uint64
	SpecHits      uint64
	SpecCancelled uint64
	SpecWasted    uint64
}

// shard is one worker: a tree, its working goroutine, and the
// per-worker observability state behind Metrics and WriteTrace.
type shard struct {
	idx    int
	tree   *core.Tree
	policy *sched.Workload
	tracer *trace.Tracer
	done   chan struct{}
}

// DB is an open PA-Tree.
type DB struct {
	dev     nvme.Device
	ownsDev bool
	shards  []*shard
	devices int // distinct devices backing the shards

	// Hot-shard adaptation (Options.AdmissionWeighting): gov holds the
	// per-shard admission windows, govMu serializes its Adapt calls,
	// admitSeq amortizes them (one evaluation every govAdaptEvery
	// admissions) and throttleWaits counts admissions held back.
	gov           *core.Governor
	govMu         sync.Mutex
	admitSeq      atomic.Uint64
	throttleWaits atomic.Uint64

	// mu orders admissions against Close: admitting paths hold it shared
	// while checking closed and handing operations to the trees, Close
	// holds it exclusively while setting closed. An operation therefore
	// either observes closed and fails with ErrClosed, or is fully
	// admitted before any tree is told to stop — core.ErrStopped can never
	// leak out of a well-ordered shutdown (and is mapped to ErrClosed
	// defensively anyway). Holding it shared across a whole fan-out also
	// makes multi-shard admissions atomic with respect to Close.
	mu     sync.RWMutex
	closed bool

	// concReads mirrors Options.ConcurrentReads; when set, read paths try
	// the optimistic published-page descent before the pipeline.
	concReads bool
}

// minShardBlocks is the smallest device partition a shard accepts: room
// for the superblock, a root, and a useful WAL region.
const minShardBlocks = 1024

// govAdaptEvery is how many admissions pass between two governor
// evaluations — frequent enough to track a shifting hot set, amortized
// enough to stay off the admission fast path.
const govAdaptEvery = 1024

// Open creates or opens a PA-Tree per opts and starts its working
// goroutine(s).
func Open(opts Options) (*DB, error) {
	if len(opts.Devices) > 0 && opts.Device != nil {
		return nil, fmt.Errorf("patree: set Options.Device or Options.Devices, not both")
	}
	if len(opts.Devices) == 1 {
		// A one-device topology is exactly the classic layout; normalize
		// so the single- and multi-device paths stay byte-identical.
		for i, d := range opts.Placement {
			if d != 0 {
				return nil, fmt.Errorf("patree: shard %d placed on device %d, have 1 device", i, d)
			}
		}
		opts.Device = opts.Devices[0]
		opts.Devices = nil
	}
	dev := opts.Device
	owns := false
	if dev == nil && len(opts.Devices) == 0 {
		if opts.DeviceBlocks == 0 {
			opts.DeviceBlocks = 1 << 20
		}
		dev = nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: opts.DeviceBlocks})
		owns = true
	}
	if opts.BufferPages == 0 {
		opts.BufferPages = 4096
	}
	if opts.InboxDepth == 0 {
		opts.InboxDepth = 4096
	}
	n := opts.Shards
	if n <= 1 {
		n = 1
	}
	if n > 1<<16-1 {
		return nil, fmt.Errorf("patree: %d shards exceeds the format limit", n)
	}
	db := &DB{dev: dev, ownsDev: owns, devices: 1, concReads: opts.ConcurrentReads}
	if opts.AdmissionWeighting {
		// The governor works the nominal depth; the physical ring is
		// doubled below so a throttled topology still has the deeper ring
		// the hot shard's writers were promised.
		db.gov = core.NewGovernor(n, opts.InboxDepth)
		opts.InboxDepth *= 2
	}
	if len(opts.Devices) > 1 {
		return openMultiDevice(db, opts, n)
	}
	if n == 1 {
		// Single worker: the device is used directly, exactly the
		// pre-sharding layout (shard identity 0/0 in the superblock).
		s, err := openShard(dev, opts, opts.BufferPages, 0, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		db.shards = []*shard{s}
		return db, nil
	}
	per := dev.NumBlocks() / uint64(n)
	if per < minShardBlocks {
		return nil, fmt.Errorf("patree: device of %d blocks too small for %d shards (need %d blocks each)",
			dev.NumBlocks(), n, minShardBlocks)
	}
	bufPer := opts.BufferPages / n
	if bufPer < 64 {
		bufPer = 64
	}
	shards := make([]*shard, n)
	for i := 0; i < n; i++ {
		part, err := nvme.NewPartition(dev, uint64(i)*per, per)
		if err != nil {
			return nil, err
		}
		s, err := openShard(part, opts, bufPer, uint16(i), uint16(n), 0, 0)
		if err != nil {
			// Unwind the workers already started so no goroutine leaks.
			for _, prev := range shards[:i] {
				prev.tree.Stop()
				<-prev.done
			}
			return nil, fmt.Errorf("patree: shard %d/%d: %w", i, n, err)
		}
		s.idx = i
		shards[i] = s
	}
	db.shards = shards
	return db, nil
}

// openMultiDevice opens the N-shards × M-devices topology: each shard
// lives on a partition of its placed device (nvme.ShardPartitions), with
// the placement stamped into the shard's superblock so the same device
// list — same count, same order — is required to reopen it.
func openMultiDevice(db *DB, opts Options, n int) (*DB, error) {
	m := len(opts.Devices)
	if n < m {
		return nil, fmt.Errorf("patree: %d shards cannot cover %d devices — every device must host at least one shard (raise Options.Shards or drop devices)", n, m)
	}
	place := opts.Placement
	if place == nil {
		place = make([]int, n)
		for i := range place {
			place[i] = i % m
		}
	}
	parts, err := nvme.ShardPartitions(opts.Devices, n, place)
	if err != nil {
		return nil, err
	}
	for i, p := range parts {
		if p.NumBlocks() < minShardBlocks {
			return nil, fmt.Errorf("patree: device %d of %d blocks too small for its %d shards (shard %d needs %d blocks)",
				place[i], opts.Devices[place[i]].NumBlocks(), countPlaced(place, place[i]), i, minShardBlocks)
		}
	}
	bufPer := opts.BufferPages / n
	if bufPer < 64 {
		bufPer = 64
	}
	shards := make([]*shard, n)
	for i, part := range parts {
		s, err := openShard(part, opts, bufPer, uint16(i), uint16(n), uint16(place[i]), uint16(m))
		if err != nil {
			for _, prev := range shards[:i] {
				prev.tree.Stop()
				<-prev.done
			}
			return nil, fmt.Errorf("patree: shard %d/%d (device %d/%d): %w", i, n, place[i], m, err)
		}
		s.idx = i
		shards[i] = s
	}
	db.shards = shards
	db.devices = m
	return db, nil
}

// countPlaced counts the shards a placement assigns to device d.
func countPlaced(place []int, d int) int {
	k := 0
	for _, p := range place {
		if p == d {
			k++
		}
	}
	return k
}

// openShard formats/recovers one device (or partition) as shard id of
// count placed on device devID of devCount, verifies its recorded shard
// and device identity, and starts its worker.
func openShard(dev nvme.Device, opts Options, bufferPages int, id, count, devID, devCount uint16) (*shard, error) {
	meta, err := core.ReadMeta(dev)
	switch {
	case opts.Format:
		if meta, err = core.FormatShardDevice(dev, id, count, devID, devCount); err != nil {
			return nil, fmt.Errorf("patree: format: %w", err)
		}
	case err != nil:
		// The superblock is unreadable — possibly torn by a crash mid
		// meta write. Recovery can rebuild it from the journaled image;
		// only a device with no recoverable tree at all is formatted.
		if m, _, rerr := core.Recover(dev); rerr == nil {
			meta = m
		} else if meta, err = core.FormatShardDevice(dev, id, count, devID, devCount); err != nil {
			return nil, fmt.Errorf("patree: format: %w", err)
		}
	case meta.WALBlocks != 0:
		// The device describes a journal region: replay whatever an
		// unclean shutdown left there (a no-op after a clean Close). A
		// topology mismatch is diagnosed first — under the wrong partition
		// geometry the recorded WAL range may not even be addressable.
		if err := checkShardIdentity(meta, id, count, devID, devCount); err != nil {
			return nil, err
		}
		m, _, rerr := core.Recover(dev)
		if rerr != nil {
			return nil, fmt.Errorf("patree: recover: %w", rerr)
		}
		meta = m
	}
	if err := checkShardIdentity(meta, id, count, devID, devCount); err != nil {
		return nil, err
	}
	env := core.NewRealEnv()
	// Real-time polling: probes are cheap host work, so use a tight
	// probe backstop for low single-operation latency.
	model, err := probe.Default()
	if err != nil {
		return nil, err
	}
	policy := sched.NewWorkload(model, nil, 20*time.Microsecond)
	policy.SetSafety(20 * time.Microsecond)
	// A fresh admission cuts an idle yield short (paired with the
	// RealEnv wakeup), so a batch landing on an idle tree is picked up
	// immediately instead of after a yield quantum.
	policy.SetAdmissionAware(true)
	// Prediction-error introspection is pure observation (it never alters
	// probe decisions), so it is always on and Metrics can report it.
	policy.EnableAccuracy()
	var tracer *trace.Tracer
	if opts.Trace {
		if opts.TraceEvents == 0 {
			opts.TraceEvents = 65536
		}
		tracer = core.NewTracer(opts.TraceEvents)
	}
	tree, err := core.New(dev, core.Config{
		Persistence:     opts.Persistence,
		BufferPages:     bufferPages,
		InboxDepth:      opts.InboxDepth,
		Journal:         opts.Journal,
		MaxIORetries:    opts.MaxIORetries,
		Policy:          policy,
		Tracer:          tracer,
		ConcurrentReads: opts.ConcurrentReads,
		ScanReadAhead:   opts.Pipelined,
	}, env, meta)
	if err != nil {
		return nil, err
	}
	s := &shard{tree: tree, policy: policy, tracer: tracer, done: make(chan struct{})}
	go func() {
		// The working thread is an ordinary goroutine. Locking it to an OS
		// thread would reserve no CPU, yet every yield of the polled loop
		// (SpinWait's Gosched, idle timer sleeps) would then hand the P
		// off through a futex wake of the locked thread.
		tree.Run()
		close(s.done)
	}()
	return s, nil
}

// checkShardIdentity compares a superblock's recorded shard and device
// placement against the topology it is being opened under. The device
// check runs first so a mis-assembled device list gets the
// device-flavored diagnosis even when the shard ids also disagree.
func checkShardIdentity(meta *storage.Meta, id, count, devID, devCount uint16) error {
	if meta.DeviceID != devID || meta.DeviceCount != devCount {
		return fmt.Errorf("patree: device holds shard %d placed on device %d of %d, opened as device %d of %d — pass Options.Devices in the formatted count and order (or Format to repartition)",
			meta.ShardID, meta.DeviceID, meta.DeviceCount, devID, devCount)
	}
	if meta.ShardID != id || meta.ShardCount != count {
		return fmt.Errorf("patree: device holds shard %d of %d, opened as %d of %d — set Options.Shards to the formatted count (or Format to repartition)",
			meta.ShardID, meta.ShardCount, id, count)
	}
	return nil
}

// mapErr translates internal sentinel errors to their public forms.
func mapErr(err error) error {
	if errors.Is(err, core.ErrStopped) {
		return ErrClosed
	}
	return err
}

// shardFor routes a key to its owning shard (see core.ShardOf).
func (db *DB) shardFor(key uint64) *shard {
	if len(db.shards) == 1 {
		return db.shards[0]
	}
	return db.shards[core.ShardOf(key, len(db.shards))]
}

// throttle holds the caller back while s is under an imposed admission
// window at its cap (Options.AdmissionWeighting). It runs before the
// admission lock is taken, so a throttled producer never delays Close;
// a closed DB releases every waiter (the subsequent admit fails with
// ErrClosed). Observability no-ops (onWorker) skip it — only index
// operations are weighted.
func (db *DB) throttle(s *shard) {
	g := db.gov
	if g == nil {
		return
	}
	db.maybeAdapt()
	if !g.Throttled(s.idx, s.tree.EngineDepth()) {
		return
	}
	db.throttleWaits.Add(1)
	spins := 0
	for g.Throttled(s.idx, s.tree.EngineDepth()) {
		spins++
		if spins%64 == 0 {
			time.Sleep(time.Microsecond)
			db.mu.RLock()
			closed := db.closed
			db.mu.RUnlock()
			if closed {
				return
			}
			// Keep adapting while spinning: recovery of the window is what
			// ends the wait when the worker has drained its backlog.
			db.maybeAdapt()
		} else {
			runtime.Gosched()
		}
	}
}

// maybeAdapt runs one governor evaluation every govAdaptEvery
// admissions, feeding it every shard's live depth and queue-wait EWMA.
func (db *DB) maybeAdapt() {
	if db.admitSeq.Add(1)%govAdaptEvery != 0 {
		return
	}
	db.govMu.Lock()
	defer db.govMu.Unlock()
	depths := make([]int, len(db.shards))
	waits := make([]time.Duration, len(db.shards))
	for i, s := range db.shards {
		depths[i] = s.tree.EngineDepth()
		waits[i] = s.tree.QueueWaitEWMA()
	}
	db.gov.Adapt(depths, waits)
}

// throttledNow reports whether s is at its admission window right now —
// the non-blocking paths' (TryCommit) check.
func (db *DB) throttledNow(s *shard) bool {
	if db.gov == nil {
		return false
	}
	db.maybeAdapt()
	return db.gov.Throttled(s.idx, s.tree.EngineDepth())
}

// admit checks closed and hands op (whose Done is already set) to s's
// working thread. It holds the admission lock shared across the whole
// hand-off; see DB.mu.
func (db *DB) admit(s *shard, op *core.Op) error {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		op.Release()
		return ErrClosed
	}
	s.tree.Admit(op)
	db.mu.RUnlock()
	return nil
}

// exec admits op on s and blocks until the working thread completes it.
// The operation and its completion handle come from pools, so the steady
// state adds no admission-side allocation.
func (db *DB) exec(s *shard, op *core.Op) (core.Result, error) {
	h := acquireHandle()
	op.Done = h.doneFn
	db.throttle(s)
	if err := db.admit(s, op); err != nil {
		h.abandon()
		return core.Result{}, err
	}
	err := h.Wait()
	res := h.res
	h.recycle()
	return res, err
}

// Put inserts or replaces key.
func (db *DB) Put(key uint64, value []byte) error {
	_, err := db.exec(db.shardFor(key), core.AcquireOp().InitInsert(key, value))
	return err
}

// Get returns the value stored under key. With Options.ConcurrentReads
// it is answered on the calling goroutine when the optimistic read can
// prove the answer current, falling back to the pipeline otherwise.
func (db *DB) Get(key uint64) ([]byte, bool, error) {
	if db.concReads {
		if res, ok := db.tryConcGet(key); ok {
			return res.Value, res.Found, nil
		}
	}
	res, err := db.exec(db.shardFor(key), core.AcquireOp().InitSearch(key))
	return res.Value, res.Found, err
}

// Update replaces key only if present, reporting whether it was.
func (db *DB) Update(key uint64, value []byte) (bool, error) {
	res, err := db.exec(db.shardFor(key), core.AcquireOp().InitUpdate(key, value))
	return res.Found, err
}

// Delete removes key, reporting whether it was present.
func (db *DB) Delete(key uint64) (bool, error) {
	res, err := db.exec(db.shardFor(key), core.AcquireOp().InitDelete(key))
	return res.Found, err
}

// Scan returns pairs with keys in [lo, hi], at most limit (0 = all).
// Across shards the per-shard results are merge-sorted and the limit
// applies to the merged stream, so the result is the same ascending
// prefix a single tree would return.
func (db *DB) Scan(lo, hi uint64, limit int) ([]KV, error) {
	if db.concReads {
		if res, ok := db.tryConcScan(lo, hi, limit); ok {
			return res.Pairs, nil
		}
	}
	if len(db.shards) == 1 {
		res, err := db.exec(db.shards[0], core.AcquireOp().InitRange(lo, hi, limit))
		return res.Pairs, err
	}
	h, err := db.ScanAsync(lo, hi, limit)
	if err != nil {
		return nil, err
	}
	err = h.Wait()
	pairs := h.res.Pairs
	h.recycle()
	return pairs, err
}

// Sync flushes all buffered updates and the meta pages to the device
// (meaningful under Weak persistence; cheap under Strong). Across
// shards it fans out and waits for every shard's flush.
func (db *DB) Sync() error {
	if len(db.shards) == 1 {
		_, err := db.exec(db.shards[0], core.AcquireOp().InitSync())
		return err
	}
	h, err := db.SyncAsync()
	if err != nil {
		return err
	}
	err = h.Wait()
	h.recycle()
	return err
}

// onWorker runs f on s's working thread (via a pipeline no-op), giving
// it a quiescent, consistent view of that shard's state with no racing
// mutations. On a closed DB it waits for the worker to exit and runs f
// directly — the final state is then equally race-free.
func (db *DB) onWorker(s *shard, f func()) {
	op := core.AcquireOp().InitNop()
	ch := make(chan struct{})
	op.Done = func(o *core.Op) {
		f()
		o.Release()
		close(ch)
	}
	if err := db.admit(s, op); err != nil {
		<-s.done
		f()
		return
	}
	<-ch
}

// Stats snapshots activity counters, summed across shards; each shard's
// contribution is taken on its working thread so it is a consistent
// per-shard view.
func (db *DB) Stats() Stats {
	var out Stats
	var hits, misses uint64
	for _, s := range db.shards {
		var part Stats
		var bs bufferCounts
		db.onWorker(s, func() { part, bs = s.statsSnapshot() })
		out.Ops += part.Ops
		out.NumKeys += part.NumKeys
		if part.Height > out.Height {
			out.Height = part.Height
		}
		out.Probes += part.Probes
		out.ReadsIssued += part.ReadsIssued
		out.WritesIssued += part.WritesIssued
		out.AdmitWaits += part.AdmitWaits
		out.IOErrors += part.IOErrors
		out.IORetries += part.IORetries
		out.JournalAppends += part.JournalAppends
		out.Checkpoints += part.Checkpoints
		out.SpecIssued += part.SpecIssued
		out.SpecHits += part.SpecHits
		out.SpecCancelled += part.SpecCancelled
		out.SpecWasted += part.SpecWasted
		hits += bs.hits
		misses += bs.misses
	}
	if hits+misses > 0 {
		out.BufferHit = float64(hits) / float64(hits+misses)
	}
	out.Shards = len(db.shards)
	out.Devices = db.devices
	out.ThrottleWaits = db.throttleWaits.Load()
	return out
}

// bufferCounts carries raw hit/miss counters out of a shard snapshot so
// the merged hit rate is weighted, not an average of averages.
type bufferCounts struct{ hits, misses uint64 }

// statsSnapshot builds one shard's Stats contribution; call only on the
// shard's working thread (onWorker).
func (s *shard) statsSnapshot() (Stats, bufferCounts) {
	st := s.tree.StatsSnapshot()
	bs := s.tree.BufferStats()
	return Stats{
		Ops:            st.TotalOps(),
		NumKeys:        s.tree.NumKeys(),
		Height:         s.tree.Height(),
		Probes:         st.Probes,
		ReadsIssued:    st.ReadsIssued,
		WritesIssued:   st.WritesIssued,
		AdmitWaits:     st.AdmitWaits,
		IOErrors:       st.IOErrors,
		IORetries:      st.IORetries,
		JournalAppends: st.JournalAppends,
		Checkpoints:    st.Checkpoints,
		SpecIssued:     st.SpecIssued,
		SpecHits:       st.SpecHits,
		SpecCancelled:  st.SpecCancelled,
		SpecWasted:     st.SpecWasted,
	}, bufferCounts{hits: bs.Hits, misses: bs.Misses}
}

// Close syncs (weak mode), stops the working threads and releases the
// device if this DB created it. Safe to call twice, and safe against
// concurrent operations: anything admitted before Close wins the
// admission lock completes normally; anything after fails with
// ErrClosed. Shards are flushed in parallel (each gets a final sync
// before its Stop) and the first error is reported.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	// Mark closed before the final sync, not after it: new admissions are
	// refused from this point, so nothing can slip into the inboxes
	// between the sync and Stop and then complete with a surprising error.
	db.closed = true
	db.mu.Unlock()
	// Persist buffered state before shutdown. closed is already set, so
	// these syncs are admitted directly rather than through db.admit.
	handles := make([]*Handle, len(db.shards))
	for i, s := range db.shards {
		h := acquireHandle()
		op := core.AcquireOp().InitSync()
		op.Done = h.doneFn
		s.tree.Admit(op)
		handles[i] = h
	}
	var syncErr error
	for i, s := range db.shards {
		if err := handles[i].Wait(); err != nil && syncErr == nil {
			syncErr = err
		}
		handles[i].recycle()
		s.tree.Stop()
	}
	for _, s := range db.shards {
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			return fmt.Errorf("patree: worker did not stop")
		}
	}
	if db.ownsDev {
		if err := db.dev.Close(); err != nil && syncErr == nil {
			syncErr = err
		}
	}
	return syncErr
}
