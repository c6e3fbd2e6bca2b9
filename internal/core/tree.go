package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/latch"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sched"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/trace"
	"github.com/patree/patree/internal/wal"
)

// innerSplitMargin is how far below the hard inner capacity a node must be
// before we descend through it on the insert path: a single leaf overflow
// can cascade up to ceil(log2(leaf entries)) separators into one parent
// (multi-split of small entries around one large value), so parents keep
// at least this much slack. See DESIGN.md.
const innerSplitMargin = 6

// ErrValueTooLarge mirrors storage.ErrValueTooLarge at the operation level.
var ErrValueTooLarge = storage.ErrValueTooLarge

// ErrStopped is returned for operations admitted after Stop.
var ErrStopped = errors.New("core: tree stopped")

// ErrBacklog is returned by TryAdmit/TryAdmitBatch when the bounded
// admission ring is full — backpressure the embedder can react to.
var ErrBacklog = errors.New("core: admission ring full")

// ErrDeviceFailed is the terminal error: an I/O failed beyond the retry
// budget (or with a non-transient status), the tree entered its failed
// state, and every live and future operation completes with this error.
// The working thread keeps running so pending operations drain cleanly;
// Tree.FailCause reports the underlying device error.
var ErrDeviceFailed = errors.New("core: device failed")

// ErrNoSpace is returned by an insert or update that would have to split
// a page when the shard's page range (everything below its journal
// region, or its whole partition without one) cannot hold a worst-case
// split. It fails before any page is touched; reads, deletes and writes
// that fit their leaf keep working.
var ErrNoSpace = errors.New("core: no space for new pages")

// errCorruptRead marks a read whose page image failed its checksum
// (bit rot, or a torn write surfacing later). It is transient from the
// retry machinery's point of view: a re-read may return clean data.
var errCorruptRead = errors.New("core: page image failed checksum")

// transientIOErr reports whether a device error is worth retrying.
func transientIOErr(err error) bool {
	return err == nvme.ErrMedia || err == nvme.ErrTimeout || err == errCorruptRead
}

// Stats aggregates the tree-side measurements the experiments report.
type Stats struct {
	Completed       [numKinds]uint64 // by Kind
	Latency         *metrics.Histogram
	SearchLatency   *metrics.Histogram
	UpdateLatency   *metrics.Histogram
	Probes          uint64
	ProbeHits       uint64 // probes that reaped >= 1 completion
	CompletionsSeen uint64
	Yields          uint64
	YieldTime       time.Duration
	// AdmitWaits counts blocking Admit calls that found the ring full and
	// had to back off at least once (backpressure events).
	AdmitWaits uint64
	// IdleSpinTime is CPU burned busy-polling with nothing to do; it is
	// charged to the "others" category and reported separately so the
	// Figure 9 / Table II attribution can exclude it (perf-style cycle
	// attribution does not see a wait loop as scheduling work).
	IdleSpinTime time.Duration
	ReadsIssued  uint64
	WritesIssued uint64
	Splits       uint64
	// IOErrors counts device commands that completed with an error status;
	// IORetries counts the retries issued in response (bounded per op by
	// Config.MaxIORetries). JournalAppends counts redo records appended to
	// the WAL, and Checkpoints counts completed journal checkpoints.
	IOErrors       uint64
	IORetries      uint64
	JournalAppends uint64
	Checkpoints    uint64
	// Scan read-ahead instrumentation (Config.ScanReadAhead; see
	// pipeline.go). SpecIssued counts read-ahead page reads submitted;
	// SpecHits counts operations that coalesced onto an in-flight
	// read-ahead instead of issuing their own demand read; SpecCancelled
	// counts read-ahead completions dropped (intervening write, page
	// already resident another way, device error or checksum failure);
	// SpecWasted counts read-ahead pages installed with no operation
	// waiting — prefetched warmth that may still serve a later buffer
	// hit, but earned nothing yet.
	SpecIssued    uint64
	SpecHits      uint64
	SpecCancelled uint64
	SpecWasted    uint64
	// Stages holds per-stage, per-kind latency histograms: where each
	// operation's time went between admission and completion (see
	// metrics.Stage). The conditional stages (admit-wait, latch-wait,
	// io-wait) record only operations that actually waited there, so
	// their percentiles describe the waiters, not a sea of zeros.
	Stages *metrics.StageSet
}

// TotalOps returns the number of completed index operations. Pipeline
// no-ops are excluded: they are diagnostics (and stats carriers), not
// index work.
func (s Stats) TotalOps() uint64 {
	var t uint64
	for k, c := range s.Completed {
		if Kind(k) == KindNop {
			continue
		}
		t += c
	}
	return t
}

// Tree is a PA-Tree instance bound to a device queue pair and an
// execution environment. All methods except Admit and Stop must be called
// from the working thread.
type Tree struct {
	cfg Config
	dev nvme.Device
	qp  nvme.QueuePair
	env Env

	// In-memory superblock state (persisted via the meta page on Sync).
	rootID    storage.PageID
	height    int
	numKeys   uint64
	syncEpoch uint64
	alloc     *storage.Allocator
	// splitReserved sums the allocator headroom held by live pessimistic
	// inserts (spaceGate), so concurrent splits never outrun the limit.
	splitReserved uint64

	// Shard and device identity from the opening meta, copied into every
	// meta image the tree writes so checkpoints and root moves can never
	// demote a shard member back to an unsharded (or single-device)
	// superblock (0/0 = unsharded, 0/0 = single device).
	shardID     uint16
	shardCount  uint16
	deviceID    uint16
	deviceCount uint16

	latches *latch.Table
	ro      *buffer.ReadOnly  // strong persistence
	rw      *buffer.ReadWrite // weak persistence

	// pub, when non-nil (Config.ConcurrentReads), is the published-page
	// table that read-only goroutines traverse optimistically without
	// entering the admission pipeline. The worker is its sole writer: it
	// publishes every page image it installs in a buffer and retires
	// entries as the buffer evicts them (the table mirrors residency, so
	// its footprint is bounded by BufferPages). See published.go/reader.go.
	pub *pubTable

	// inflight tracks weak-mode write-backs between submission and
	// completion so read misses never fetch stale pages from the device.
	inflight map[storage.PageID][]byte
	bgQueue  []bgWrite // dirty evictions awaiting (re)submission

	// Redo-journal state (Config.Journal). wal appends over the region
	// [walStart, walStart+walBlocks); journalOn gates the whole pipeline
	// (walStart/walBlocks/metaWALGen are kept even when it is off, so meta
	// rewrites preserve the region description). jDurable is the log byte
	// watermark known durable; jWaiters holds ops whose records were
	// carried to the device by another op's block writes and wait for the
	// watermark to cover them. jLive counts ops inside stJournal,
	// postJournalLive the strong-mode ops still writing in place after
	// their group became durable — a checkpoint quiesces both before it
	// retires records. jFence blocks new mutations (checked before the
	// leaf is touched) while a checkpoint drains.
	wal             *wal.Log
	walStart        uint64
	walBlocks       uint64
	metaWALGen      uint32
	journalOn       bool
	jDurable        int
	jLive           int
	postJournalLive int
	jFence          bool
	jWaiters        []*Op

	// The WAL block writer: one tree-level FIFO issuing block writes in
	// log order. Per-op writers would race on the shared tail block — a
	// stale rewrite landing after a newer one truncates certified bytes,
	// and an op completing its own blocks could certify bytes an earlier
	// op still has in flight, acknowledging records a crash can still
	// revert. A flush that rewrites a block still pending here supersedes
	// it in place; an entry's certify watermark is applied to jDurable
	// only when the contiguous prefix of entries up to it has completed,
	// so the durable prefix is always contiguous.
	//
	// Writes of distinct log blocks are pipelined up to walWriteDepth
	// (jwInflight gauges them, retry budgets are per entry) while a
	// rewrite of a block with a write still in flight queues behind it.
	// See DESIGN.md §11.
	jwq        []*jwEntry
	jwInflight int

	// Scan read-ahead (Config.ScanReadAhead; see pipeline.go).
	// specInflight tracks read-ahead page reads between submission and
	// completion; an op that reaches a page with a live read-ahead in
	// flight parks on it as a waiter instead of issuing a duplicate.
	// Every write-submission site calls specInvalidate with the page it
	// writes, which marks any in-flight read-ahead of that page stale
	// (vetoing its install) and wakes its waiters onto the fresh
	// in-memory image — so a stale device image can never mask a newer
	// write, and writes of unrelated pages never cost the read-ahead
	// anything.
	specInflight map[storage.PageID]*specRead

	// syncActive serializes sync/checkpoint pipelines; checkpointPending
	// is set while an internal checkpoint op is live so the trigger never
	// double-fires. retryq holds ops sleeping out a transient-failure
	// backoff (or a journal-gate deferral).
	syncActive        bool
	checkpointPending bool
	retryq            []retryEntry

	// failed flips once on the first unrecoverable device error; from then
	// on every live and future operation drains with ErrDeviceFailed
	// instead of wedging the working thread. failCause keeps the root
	// cause for diagnostics.
	failed    bool
	failCause error

	policy  sched.Policy
	ready   sched.ReadyQueue
	stalled []*Op // ops whose submission hit a full queue

	// inbox is the bounded MPSC admission ring; admitters counts producers
	// inside Admit between their stopped-check and their publish, so the
	// worker never exits while an admission is in flight (an op can then
	// neither be lost nor left waiting forever). wake, when non-nil,
	// interrupts a real-environment idle sleep the moment work arrives.
	inbox      *opRing
	admitters  atomic.Int64
	admitWaits atomic.Uint64
	// engineDepth gauges the operations currently inside the engine
	// (successfully handed to the ring, not yet completed); qwEWMA is a
	// worker-maintained exponentially weighted moving average (α = 1/8)
	// of completed operations' queue-wait, in nanoseconds. Both are the
	// cross-thread signals an admission-weighting governor feeds on
	// (EngineDepth / QueueWaitEWMA; see governor.go) and cost one atomic
	// each per admission/completion — they never influence the worker's
	// own scheduling, so deterministic simulation runs are unaffected.
	engineDepth atomic.Int64
	qwEWMA      atomic.Int64
	wake        func()
	// spin, when the environment provides SpinWait, busy-polls short
	// yields while I/O is outstanding instead of parking on an OS timer
	// whose resolution dwarfs device latency (see Run).
	spin    func(time.Duration)
	stopped atomic.Bool
	running bool

	// tr is Config.Tracer (nil = tracing off). All emission happens on
	// the working thread; producer-side facts arrive as timestamps on the
	// Op and are emitted retroactively at drain time.
	tr *trace.Tracer

	seq     uint64
	dbgPush uint64
	dbgPop  uint64
	liveSet map[uint64]*Op
	// keyDeps serializes in-flight point operations per exact key: the
	// map holds the TAIL of each key's chain, and a newly drained op on a
	// chained key parks behind the tail instead of entering the ready set.
	// Admission order is FIFO (the ring), but execution is pipelined —
	// without the chain a restarted insert (optimistic split retry) or an
	// I/O-suspended write can be overtaken by a later operation on the
	// same key, so a batch's Get could miss its own batch's earlier Put.
	// Range scans and syncs do not participate: they are documented as
	// unordered with respect to concurrent point writes.
	keyDeps    map[uint64]*Op
	liveOps    int
	ioBlocked  int
	charges    [5]time.Duration
	stats      Stats
	pollerLive bool
}

// bgWrite is one queued background write-back, with its retry budget and
// the earliest instant it may be (re)submitted.
type bgWrite struct {
	buffer.Dirty
	retries int
	due     sim.Time
}

// retryEntry parks an op until its backoff elapses (promoteRetries).
type retryEntry struct {
	op  *Op
	due sim.Time
}

// jwEntry is one WAL block image queued for the tree-level writer.
// certify, when non-zero, is the log byte watermark that becomes
// durable once this write (and every entry before it) completes — set
// on a flush's final block. inflight/done track the entry's
// submit→complete lifecycle; retries is its transient-retry budget.
type jwEntry struct {
	id       storage.PageID
	data     []byte
	certify  int
	inflight bool
	done     bool
	retries  int
}

// New creates a tree on dev using an existing on-device image described
// by meta (use Format to initialize a fresh device).
func New(dev nvme.Device, cfg Config, env Env, meta *storage.Meta) (*Tree, error) {
	cfg = cfg.WithDefaults()
	qp, err := dev.AllocQueuePair(cfg.QueueDepth)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:       cfg,
		dev:       dev,
		qp:        qp,
		env:       env,
		rootID:    meta.Root,
		height:    int(meta.Height),
		numKeys:   meta.NumKeys,
		syncEpoch: meta.SyncEpoch,
		alloc:     storage.NewAllocator(meta.Watermark, pageLimit(dev, meta)),
		latches:   latch.NewTable(),
		inflight:  make(map[storage.PageID][]byte),
		policy:    cfg.Policy,
		inbox:     newOpRing(cfg.InboxDepth),
		tr:        cfg.Tracer,
	}
	t.shardID = meta.ShardID
	t.shardCount = meta.ShardCount
	t.deviceID = meta.DeviceID
	t.deviceCount = meta.DeviceCount
	t.walStart = meta.WALStart
	t.walBlocks = meta.WALBlocks
	t.metaWALGen = meta.WALGen
	if cfg.Journal && meta.WALBlocks > 0 && meta.WALStart > 0 {
		t.wal = wal.NewLog(storage.PageSize, meta.WALBlocks)
		g := meta.WALGen
		if g < 1 {
			g = 1
		}
		t.wal.SetGeneration(g)
		t.journalOn = true
	}
	if w, ok := env.(interface{ Wake() }); ok {
		t.wake = w.Wake
	}
	if s, ok := env.(interface{ SpinWait(time.Duration) }); ok {
		t.spin = s.SpinWait
	}
	if cfg.Persistence == WeakPersistence {
		t.rw = buffer.NewReadWrite(cfg.BufferPages)
	} else {
		t.ro = buffer.NewReadOnly(cfg.BufferPages)
	}
	if cfg.ConcurrentReads && cfg.BufferPages > 0 {
		// The table mirrors buffer residency, so with no buffer there is
		// nothing to publish and the fast path would never serve: leave it
		// off and let every read take the pipeline.
		t.pub = newPubTable()
		t.pub.publishRoot(t.rootID, t.height)
		if t.rw != nil {
			t.rw.SetOnEvict(t.pub.retire)
		} else {
			t.ro.SetOnEvict(t.pub.retire)
		}
	}
	if cfg.Prioritized {
		t.ready = sched.NewPriority()
	} else {
		t.ready = sched.NewFIFO()
	}
	t.stats.Latency = metrics.NewHistogram()
	t.stats.SearchLatency = metrics.NewHistogram()
	t.stats.UpdateLatency = metrics.NewHistogram()
	t.stats.Stages = metrics.NewStageSet(numKinds)
	return t, nil
}

// Format initializes a fresh device with an empty tree (meta page + empty
// root leaf) using direct synchronous I/O, and returns the meta image.
// When the device is large enough, a WAL region is carved from its top
// and recorded in the meta page; the redo journal (Config.Journal) and
// crash recovery use it, and it costs nothing when left disabled.
func Format(dev nvme.Device) (*storage.Meta, error) {
	return FormatShard(dev, 0, 0)
}

// FormatShard is Format with a shard identity stamped into the meta
// page: shard id of count trees hash-partitioning one keyspace
// (0 of 0 = unsharded). Open-time checks compare the recorded identity
// against the requested shard layout, so a device formatted for one
// layout cannot silently open under another.
func FormatShard(dev nvme.Device, id, count uint16) (*storage.Meta, error) {
	return FormatShardDevice(dev, id, count, 0, 0)
}

// FormatShardDevice is FormatShard with a device placement stamped
// alongside the shard identity: the shard lives on device devID of
// devCount in a multi-device topology (0 of 0 = single-device layout).
// Open-time checks compare it against the offered device list, so a
// topology formatted across M devices cannot silently open with a
// different device count or order.
func FormatShardDevice(dev nvme.Device, id, count, devID, devCount uint16) (*storage.Meta, error) {
	root := storage.NewLeaf(1)
	walStart, walBlocks := walGeometry(dev.NumBlocks())
	meta := &storage.Meta{Root: 1, Height: 1, Watermark: 2,
		WALStart: walStart, WALBlocks: walBlocks,
		ShardID: id, ShardCount: count,
		DeviceID: devID, DeviceCount: devCount}
	if walBlocks > 0 {
		meta.WALGen = 1
		// Zero the region's first block so stale frames from a previous
		// life of the device can never be replayed.
		if err := syncWrite(dev, storage.PageID(walStart), make([]byte, storage.PageSize)); err != nil {
			return nil, err
		}
	}
	if err := syncWrite(dev, 1, root.Encode()); err != nil {
		return nil, err
	}
	if err := syncWrite(dev, 0, meta.Encode()); err != nil {
		return nil, err
	}
	return meta, nil
}

// ReadMeta loads the meta page from the device synchronously.
func ReadMeta(dev nvme.Device) (*storage.Meta, error) {
	buf := make([]byte, storage.PageSize)
	if err := syncRead(dev, 0, buf); err != nil {
		return nil, err
	}
	return storage.DecodeMeta(buf)
}

// syncWrite performs a blocking single-page write: submit, then poll.
// Used only for setup/recovery paths, never on the index hot path.
func syncWrite(dev nvme.Device, id storage.PageID, data []byte) error {
	return syncIO(dev, &nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data})
}

func syncRead(dev nvme.Device, id storage.PageID, buf []byte) error {
	return syncIO(dev, &nvme.Command{Op: nvme.OpRead, LBA: uint64(id), Blocks: 1, Buf: buf})
}

func syncIO(dev nvme.Device, cmd *nvme.Command) error {
	qp, err := dev.AllocQueuePair(4)
	if err != nil {
		return err
	}
	defer qp.Free()
	done := false
	var ioErr error
	cmd.Callback = func(c nvme.Completion) { done = true; ioErr = c.Err }
	if err := qp.Submit(cmd); err != nil {
		return err
	}
	// On a simulated device (or a partition/fault wrapper over one),
	// Advance drains the engine and the completion is ready immediately.
	// Wrappers over real-time devices expose a no-op Advance, so fall
	// through to wall-clock polling whenever the completion is not there.
	if sd, ok := dev.(interface{ Advance() }); ok {
		sd.Advance()
		qp.Probe(0)
		if done {
			return ioErr
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !done {
		qp.Probe(0)
		if time.Now().After(deadline) {
			return fmt.Errorf("core: sync I/O timed out")
		}
		runtime.Gosched() // let a real-time device's goroutines serve it
	}
	return ioErr
}

// now returns the environment clock.
func (t *Tree) now() sim.Time { return t.env.Now() }

// charge accumulates CPU cost; chargeFlush turns the accumulation into
// actual environment work (one batch per main-loop pass keeps the
// simulated-thread handoff overhead low).
func (t *Tree) charge(cat metrics.CPUCategory, d time.Duration) { t.charges[cat] += d }

func (t *Tree) chargeFlush() {
	for cat, d := range t.charges {
		if d > 0 {
			t.env.Work(metrics.CPUCategory(cat), d)
			t.charges[cat] = 0
		}
	}
}

// Admit hands an operation to the working thread. Safe to call from any
// goroutine (real mode) or any simulation context (sim mode). When the
// bounded admission ring is full, Admit blocks until the working thread
// drains room (backpressure); use TryAdmit for a non-blocking variant.
func (t *Tree) Admit(o *Op) {
	t.admitters.Add(1)
	o.Res.Admitted = t.now()
	// enqueuedAt is (re)stamped before every push attempt, so admit-wait
	// (enqueuedAt − Admitted) measures the backpressure this op absorbed.
	// The ring's release-store publishes it with the rest of the op.
	o.enqueuedAt = o.Res.Admitted
	t.notePending(o)
	t.noteEntered(o)
	if t.stopped.Load() {
		t.admitters.Add(-1)
		t.failAdmit(o)
		return
	}
	if !t.inbox.TryPush(o) {
		t.admitWaits.Add(1)
		spins := 0
		for {
			if t.stopped.Load() {
				t.admitters.Add(-1)
				t.failAdmit(o)
				return
			}
			t.admitBackoff(&spins)
			o.enqueuedAt = t.now()
			if t.inbox.TryPush(o) {
				break
			}
		}
	}
	t.admitters.Add(-1)
	if t.wake != nil {
		t.wake()
	}
}

// TryAdmit is Admit without blocking: it returns ErrBacklog (touching
// nothing) when the ring is full, and ErrStopped (after completing o with
// that error) when the tree has stopped; nil means o was admitted.
func (t *Tree) TryAdmit(o *Op) error {
	t.admitters.Add(1)
	o.Res.Admitted = t.now()
	o.enqueuedAt = o.Res.Admitted
	t.notePending(o)
	t.noteEntered(o)
	if t.stopped.Load() {
		t.admitters.Add(-1)
		t.failAdmit(o)
		return ErrStopped
	}
	if !t.inbox.TryPush(o) {
		t.admitters.Add(-1)
		t.unnotePending(o)
		t.unnoteEntered(o)
		return ErrBacklog
	}
	t.admitters.Add(-1)
	if t.wake != nil {
		t.wake()
	}
	return nil
}

// AdmitBatch admits ops as contiguous transactions on the ring: no
// foreign operation interleaves into a chunk, so a batch is processed as
// a group in admission order. Batches larger than the ring are split into
// ring-sized chunks. Like Admit it blocks under backpressure, and fails
// every (remaining) op with ErrStopped once the tree has stopped.
func (t *Tree) AdmitBatch(ops []*Op) {
	t.admitters.Add(1)
	now := t.now()
	for _, o := range ops {
		o.Res.Admitted = now
		o.enqueuedAt = now
		t.notePending(o)
		t.noteEntered(o)
	}
	for len(ops) > 0 {
		if t.stopped.Load() {
			t.admitters.Add(-1)
			for _, o := range ops {
				t.failAdmit(o)
			}
			return
		}
		chunk := ops
		if len(chunk) > t.inbox.Cap() {
			chunk = chunk[:t.inbox.Cap()]
		}
		if !t.inbox.TryPushN(chunk) {
			t.admitWaits.Add(1)
			spins := 0
			for {
				if t.stopped.Load() {
					t.admitters.Add(-1)
					for _, o := range ops {
						t.failAdmit(o)
					}
					return
				}
				t.admitBackoff(&spins)
				retry := t.now()
				for _, o := range chunk {
					o.enqueuedAt = retry
				}
				if t.inbox.TryPushN(chunk) {
					break
				}
			}
		}
		ops = ops[len(chunk):]
	}
	t.admitters.Add(-1)
	if t.wake != nil {
		t.wake()
	}
}

// TryAdmitBatch admits ops as one contiguous ring transaction or not at
// all: it returns ErrBacklog (touching nothing) when the ring lacks room
// for the whole batch right now, and ErrStopped (after completing every
// op with that error) when the tree has stopped.
func (t *Tree) TryAdmitBatch(ops []*Op) error {
	if len(ops) > t.inbox.Cap() {
		return ErrBacklog
	}
	t.admitters.Add(1)
	now := t.now()
	for _, o := range ops {
		o.Res.Admitted = now
		o.enqueuedAt = now
		t.notePending(o)
		t.noteEntered(o)
	}
	if t.stopped.Load() {
		t.admitters.Add(-1)
		for _, o := range ops {
			t.failAdmit(o)
		}
		return ErrStopped
	}
	if !t.inbox.TryPushN(ops) {
		t.admitters.Add(-1)
		for _, o := range ops {
			t.unnotePending(o)
			t.unnoteEntered(o)
		}
		return ErrBacklog
	}
	t.admitters.Add(-1)
	if t.wake != nil {
		t.wake()
	}
	return nil
}

// Reservation is a claimed-but-unpublished span of the admission ring,
// the building block for all-or-nothing admission across several trees
// (a sharded batch commit): reserve room on every tree first, then
// publish everywhere, or abort the claims already made. Between
// TryReserve and Publish/Abort the reserving goroutine counts as an
// in-flight admitter, so the worker never exits under a live claim.
type Reservation struct {
	t   *Tree
	pos uint64
	n   int
}

// TryReserve claims room for n operations or returns ErrBacklog without
// side effects. A successful reservation (n >= 1) MUST be finished with
// Publish or Abort — an abandoned claim wedges the worker.
func (t *Tree) TryReserve(n int) (Reservation, error) {
	if n <= 0 {
		return Reservation{}, nil
	}
	if n > t.inbox.Cap() {
		return Reservation{}, ErrBacklog
	}
	t.admitters.Add(1)
	if t.stopped.Load() {
		t.admitters.Add(-1)
		return Reservation{}, ErrStopped
	}
	pos, ok := t.inbox.tryClaim(n)
	if !ok {
		t.admitters.Add(-1)
		return Reservation{}, ErrBacklog
	}
	return Reservation{t: t, pos: pos, n: n}, nil
}

// Publish fills the reservation with ops (len(ops) must equal the
// reserved count) and releases the span to the worker. If the tree
// stopped after the reservation was taken the ops are still drained by
// the worker's shutdown path — the admitters count keeps it alive.
func (r Reservation) Publish(ops []*Op) {
	if r.t == nil {
		return
	}
	if len(ops) != r.n {
		panic("core: Reservation.Publish with mismatched op count")
	}
	now := r.t.now()
	for i, o := range ops {
		o.Res.Admitted = now
		o.enqueuedAt = now
		r.t.notePending(o)
		r.t.noteEntered(o)
		r.t.inbox.publishAt(r.pos, i, o)
	}
	r.t.admitters.Add(-1)
	if r.t.wake != nil {
		r.t.wake()
	}
}

// Abort releases the reservation by publishing internal no-ops into the
// claimed slots (the span cannot be un-claimed once later producers may
// have queued behind it); the no-ops flow through the worker and free
// themselves.
func (r Reservation) Abort() {
	if r.t == nil {
		return
	}
	now := r.t.now()
	for i := 0; i < r.n; i++ {
		o := AcquireOp().InitNop()
		o.Done = func(o *Op) { o.Release() }
		o.Res.Admitted = now
		o.enqueuedAt = now
		r.t.inbox.publishAt(r.pos, i, o)
	}
	r.t.admitters.Add(-1)
	if r.t.wake != nil {
		r.t.wake()
	}
}

// failAdmit completes an operation that cannot be admitted.
func (t *Tree) failAdmit(o *Op) {
	t.unnotePending(o)
	t.unnoteEntered(o)
	o.Res.Err = ErrStopped
	o.Res.Completed = o.Res.Admitted
	if o.Done != nil {
		o.Done(o)
	}
}

// notePending registers a write op's key in the pending-key registry (the
// optimistic readers' read-your-writes fence). It MUST run before the op
// is pushed onto the ring: the worker can complete the op (and decrement)
// the instant it is visible there. Every note is balanced by exactly one
// unnote, at op teardown or on the admission failure paths; o.pendingMark
// carries the obligation.
func (t *Tree) notePending(o *Op) {
	if t.pub == nil || o.pendingMark {
		return
	}
	switch o.kind {
	case KindInsert, KindUpdate, KindDelete:
		o.pendingMark = true
		t.pub.pend.inc(o.key)
	}
}

// unnotePending releases a notePending mark, if any.
func (t *Tree) unnotePending(o *Op) {
	if o.pendingMark {
		o.pendingMark = false
		t.pub.pend.dec(o.key)
	}
}

// noteEntered counts o into the engine-depth gauge. Like notePending it
// MUST run before the op is visible on the ring (the worker can complete
// it — and decrement — the instant it is published there), and every
// mark is balanced exactly once: by completeOp, or by unnoteEntered on
// the admission-failure paths. Reservation.Abort's internal no-ops are
// never marked, so they pass through the worker without touching the
// gauge.
func (t *Tree) noteEntered(o *Op) {
	o.engMark = true
	t.engineDepth.Add(1)
}

// unnoteEntered releases a noteEntered mark, if any.
func (t *Tree) unnoteEntered(o *Op) {
	if o.engMark {
		o.engMark = false
		t.engineDepth.Add(-1)
	}
}

// EngineDepth reports how many operations are currently inside the
// engine: admitted onto the ring and not yet completed. Safe from any
// goroutine; the reading is a momentary gauge, not a fence.
func (t *Tree) EngineDepth() int { return int(t.engineDepth.Load()) }

// QueueWaitEWMA reports the exponentially weighted moving average
// (α = 1/8) of recently completed operations' ready-queue wait — the
// live congestion signal behind per-shard admission weighting. Safe
// from any goroutine.
func (t *Tree) QueueWaitEWMA() time.Duration {
	return time.Duration(t.qwEWMA.Load())
}

// admitBackoff parks a producer blocked on a full ring. Only the real
// environment can legitimately reach it: there the worker drains the ring
// concurrently. In the cooperative simulation the worker cannot run while
// the admitting callback spins, so a full ring there is a configuration
// error (raise Config.InboxDepth above the offered concurrency) and is
// reported as such rather than deadlocking silently.
func (t *Tree) admitBackoff(spins *int) {
	*spins++
	if t.wake == nil && *spins > 1<<20 {
		panic("core: admission ring full in a simulated environment; raise Config.InboxDepth")
	}
	if *spins%64 == 0 {
		time.Sleep(time.Microsecond)
	} else {
		runtime.Gosched()
	}
}

// Stop makes Run return once all admitted operations have completed.
func (t *Tree) Stop() {
	t.stopped.Store(true)
	if t.wake != nil {
		t.wake()
	}
}

// NowNanos reads the tree's clock: the same timebase its trace events
// carry. Serving-tier tracers (client, server) sample this clock so a
// merged export lines all three processes up on one axis. Safe from any
// goroutine under RealEnv (a monotonic time.Since); simulation harnesses
// call it from the scheduler thread only.
func (t *Tree) NowNanos() int64 { return int64(t.env.Now()) }

// StatsSnapshot returns a copy of the tree statistics (histograms are
// shared references; treat as read-only).
func (t *Tree) StatsSnapshot() Stats {
	st := t.stats
	st.AdmitWaits = t.admitWaits.Load()
	return st
}

// ResetStats zeroes counters and histograms (used by the harness to
// exclude warm-up).
func (t *Tree) ResetStats() {
	lat, sl, ul, stg := t.stats.Latency, t.stats.SearchLatency, t.stats.UpdateLatency, t.stats.Stages
	lat.Reset()
	sl.Reset()
	ul.Reset()
	stg.Reset()
	t.stats = Stats{Latency: lat, SearchLatency: sl, UpdateLatency: ul, Stages: stg}
	t.latches.ResetStats()
	if t.ro != nil {
		t.ro.ResetStats()
	}
	if t.rw != nil {
		t.rw.ResetStats()
	}
}

// BufferStats returns the active buffer's counters.
func (t *Tree) BufferStats() buffer.Stats {
	if t.rw != nil {
		return t.rw.Stats()
	}
	return t.ro.Stats()
}

// LatchWaits exposes latch contention (Figure 12 analysis).
func (t *Tree) LatchWaits() uint64 { return t.latches.Waits() }

// CPUSnapshot exposes the environment's live per-category CPU account
// (the Figure 9 attribution). Treat as read-only; on the simulated
// environment it reflects virtual CPU actually consumed.
func (t *Tree) CPUSnapshot() *metrics.CPUAccount { return t.env.CPU() }

// Tracer returns the configured lifecycle tracer (nil when tracing is
// off). Snapshot with Tracer().Events() from the working thread.
func (t *Tree) Tracer() *trace.Tracer { return t.tr }

// NumKeys returns the in-memory key count.
func (t *Tree) NumKeys() uint64 { return t.numKeys }

// Height returns the tree height (1 = single leaf).
func (t *Tree) Height() int { return t.height }

func (t *Tree) drainInbox() {
	drained := 0
	var drainNow sim.Time
	for {
		o, ok := t.inbox.Pop()
		if !ok {
			break
		}
		if drained == 0 {
			// One clock read covers the whole drain batch: every op in it
			// becomes ready at the same instant.
			drainNow = t.now()
		}
		drained++
		t.seq++
		o.seq = t.seq
		o.tree = t
		if o.grantFn == nil {
			o.grantFn = func() { o.tree.grantLatch(o) }
		}
		o.state = stEntry
		if o.kind == KindSync {
			o.state = stSyncRun
		}
		t.liveOps++
		if t.liveSet == nil {
			t.liveSet = make(map[uint64]*Op)
		}
		t.liveSet[o.seq] = o
		o.drainedAt = drainNow
		if t.tr != nil {
			// Producer-side events, emitted retroactively now that the op
			// is on the worker (the tracer is single-threaded by design).
			if w := o.enqueuedAt.Sub(o.Res.Admitted); w > 0 {
				t.tr.Emit(tcAdmitWait, uint16(o.kind), o.seq, 0, int64(o.Res.Admitted), int64(w))
			}
			t.tr.Emit(tcInbox, uint16(o.kind), o.seq, 0, int64(o.enqueuedAt), int64(drainNow.Sub(o.enqueuedAt)))
		}
		if pointKind(o.kind) {
			o.keyGated = true
			if tail, ok := t.keyDeps[o.key]; ok {
				// A point op on this key is still in flight: park behind it
				// (released by opTeardown) to preserve admission order.
				tail.keyNext = o
				t.keyDeps[o.key] = o
				continue
			}
			if t.keyDeps == nil {
				t.keyDeps = make(map[uint64]*Op)
			}
			t.keyDeps[o.key] = o
		}
		t.pushReady(o, drainNow)
	}
	if drained > 0 {
		t.policy.OnAdmit(drained, drainNow)
	}
}

// pointKind reports whether a kind addresses exactly one key and thus
// participates in the per-key dependency chain.
func pointKind(k Kind) bool {
	switch k {
	case KindSearch, KindInsert, KindUpdate, KindDelete:
		return true
	}
	return false
}

func (t *Tree) inboxEmpty() bool { return t.inbox.Empty() }

// pushReady moves an op into the ready set (idempotent). at is the
// push instant — callers already hold a fresh clock reading for their
// own accounting, so the queue-wait stamp rides along for free.
func (t *Tree) pushReady(o *Op, at sim.Time) {
	if o.inReady {
		return
	}
	o.inReady = true
	o.readyAt = at
	t.dbgPush++
	t.charge(metrics.CatSched, t.cfg.Costs.ReadyPushPop)
	t.ready.Push(sched.Entry{Seq: o.seq, HoldsWrite: o.holdsWrite, Op: o})
}

// Run executes the working-thread main loop (Algorithm 2; Algorithm 1 is
// the same loop under the AlwaysProbe policy with a FIFO ready queue).
// It returns after Stop() once every admitted operation has completed.
func (t *Tree) Run() {
	t.running = true
	costs := &t.cfg.Costs
	for {
		t.drainInbox()
		t.promoteRetries()
		progressed := false
		if e, ok := t.ready.Pop(); ok {
			op := e.Op.(*Op)
			t.dbgPop++
			op.inReady = false
			if w := t.now().Sub(op.readyAt); w > 0 {
				op.queueWait += w
				if t.tr != nil {
					t.tr.Emit(tcQueueWait, uint16(op.kind), op.seq, 0, int64(op.readyAt), int64(w))
				}
			}
			t.process(op)
			progressed = true
		}
		if t.cfg.Poller == PollerInline {
			t.charge(metrics.CatSched, t.policy.Overhead())
			if t.policy.ShouldProbe(t.now(), t.ioBlocked) {
				t.probe(t.policy)
			}
		}
		t.resubmitStalled()
		t.drainBG()
		t.jwKick()
		t.maybeCheckpoint()
		t.charge(metrics.CatSched, costs.SchedStep)
		if !progressed && t.ready.Len() == 0 && t.inboxEmpty() {
			// Exit order matters: admitters is read before re-checking the
			// ring so a producer that published between the two reads is
			// seen either via its admitters hold or via the ring itself.
			if t.stopped.Load() && t.liveOps == 0 &&
				t.admitters.Load() == 0 && t.inboxEmpty() {
				break
			}
			if y := t.policy.YieldFor(t.now(), t.ioBlocked); y > 0 {
				t.chargeFlush()
				t.stats.Yields++
				t.stats.YieldTime += y
				if t.tr != nil {
					t.tr.Emit(tcYield, classNone, 0, uint64(t.ioBlocked), int64(t.now()), int64(y))
				}
				if t.ioBlocked > 0 && t.spin != nil {
					// Completions are imminent (device latency is well
					// under a timer tick): poll instead of parking, or the
					// OS timer becomes the I/O completion path. This is
					// the polled-mode behaviour the paper's design
					// assumes; a true idle (no I/O outstanding) still
					// parks below and is woken by admission.
					t.spin(y)
				} else {
					t.env.Sleep(y)
				}
			} else {
				// Busy-poll: burn a spin quantum so virtual time advances
				// (this is the CPU waste Figure 13 quantifies).
				t.charge(metrics.CatOther, costs.IdleSpin)
				t.stats.IdleSpinTime += costs.IdleSpin
			}
		}
		t.chargeFlush()
	}
	t.running = false
	t.chargeFlush()
	// Defensive sweep: the admitters protocol means no op should remain,
	// but anything that somehow does must fail rather than strand a
	// waiter.
	for {
		o, ok := t.inbox.Pop()
		if !ok {
			break
		}
		t.failAdmit(o)
	}
}

// PollerPolicy returns the probe policy a dedicated polling thread should
// run: PAD-Tree spins (always probe), PAD+-Tree shares the tree's
// workload-aware policy (which is fed every submission either way).
func (t *Tree) PollerPolicy() sched.Policy {
	if t.cfg.Poller == PollerDedicatedModel {
		return t.policy
	}
	return sched.NewAlwaysProbe()
}

// RunPoller executes a dedicated polling thread (PAD / PAD+, Figure 11).
// Call in its own environment; it exits when the main Run loop exits.
func (t *Tree) RunPoller(env Env, policy sched.Policy) {
	t.pollerLive = true
	costs := &t.cfg.Costs
	for t.running || !t.stopped.Load() {
		env.Work(metrics.CatSched, policy.Overhead())
		if policy.ShouldProbe(env.Now(), t.ioBlocked) {
			t.probePoller(env, policy)
		} else if t.cfg.Poller == PollerDedicatedModel {
			// Model-gated poller sleeps when nothing is predicted,
			// keeping its CPU footprint near zero (PAD+).
			env.Sleep(5 * time.Microsecond)
		} else {
			env.Work(metrics.CatSched, costs.IdleSpin)
		}
	}
	t.pollerLive = false
}

// probe polls the completion queue from the working thread.
func (t *Tree) probe(policy sched.Policy) int {
	t.charge(metrics.CatNVMe, t.cfg.Costs.ProbeCall)
	n := t.qp.Probe(t.cfg.MaxProbeBatch)
	t.charge(metrics.CatNVMe, time.Duration(n)*t.cfg.Costs.ProbePerCQE)
	now := t.now()
	policy.OnProbe(now)
	t.stats.Probes++
	if n > 0 {
		t.stats.ProbeHits++
		t.stats.CompletionsSeen += uint64(n)
		// Only hitting probes are traced: misses can fire every scheduler
		// step and would flush the ring without adding information (the
		// Probes counter keeps the totals).
		if t.tr != nil {
			t.tr.Emit(tcProbe, classNone, 0, uint64(n), int64(now), trace.Instant)
		}
	}
	return n
}

// probePoller polls from a dedicated thread, paying the cross-thread
// handoff penalty per completion.
func (t *Tree) probePoller(env Env, policy sched.Policy) int {
	env.Work(metrics.CatNVMe, t.cfg.Costs.ProbeCall)
	n := t.qp.Probe(t.cfg.MaxProbeBatch)
	if n > 0 {
		env.Work(metrics.CatNVMe, time.Duration(n)*t.cfg.Costs.ProbePerCQE)
		env.Work(metrics.CatSync, time.Duration(n)*t.cfg.Costs.CrossThreadHandoff)
	}
	policy.OnProbe(env.Now())
	t.stats.Probes++
	if n > 0 {
		t.stats.ProbeHits++
		t.stats.CompletionsSeen += uint64(n)
	}
	return n
}

// resubmitStalled retries operations whose Submit hit a full queue.
func (t *Tree) resubmitStalled() {
	if len(t.stalled) == 0 {
		return
	}
	batch := t.stalled
	t.stalled = nil
	now := t.now()
	for _, o := range batch {
		t.pushReady(o, now)
	}
}

// ─── Operation processing ───────────────────────────────────────────────

// DebugTraceSeq enables transition tracing for one op seq (diagnostics).
var DebugTraceSeq uint64

// process runs o's transitions until it leaves the ready set (§III-A:
// process(c) is the maximal sequence of transitions until the operation
// completes or enters a waiting state).
func (t *Tree) process(o *Op) {
	for {
		if DebugTraceSeq != 0 && o.seq == DebugTraceSeq {
			fmt.Printf("TRACE op%d state=%d cur=%d depth=%d held=%v err=%v\n", o.seq, o.state, o.cur, o.depth, o.held, o.pendingErr)
		}
		if t.failed && o.state != stDone {
			// Terminal device failure: fail the operation as soon as it has
			// no commands in flight. Callbacks for outstanding commands keep
			// rescheduling it here until it has drained, so nothing is ever
			// freed back to the pool with a completion still pointing at it.
			if o.syncOutstanding == 0 {
				t.failOp(o, ErrDeviceFailed)
			}
			return
		}
		if o.pendingErr != nil && o.state != stSyncRun {
			t.failOp(o, o.pendingErr)
			return
		}
		switch o.state {
		case stEntry:
			if o.kind == KindNop {
				// Pipeline no-op: complete without touching the index.
				t.finishOp(o)
				return
			}
			o.cur = t.rootID
			o.depth = 0
			o.prevNode = nil
			o.state = stChildGranted
			if !t.acquireLatch(o, o.cur, t.latchModeFor(o, t.height-1)) {
				return // latch-blocked; grant moves us on
			}

		case stChildGranted:
			if o.depth == 0 && o.cur != t.rootID {
				// The root split while we were queued: restart from the
				// real root (entry-latch recheck; see package docs).
				t.releaseLatch(o, o.cur)
				o.state = stEntry
				continue
			}
			// Searches, scans, deletes and optimistic updates release the
			// previous node as soon as the child latch is granted;
			// pessimistic updates keep it until the child is known not to
			// split.
			if !t.pessimisticCoupling(o) {
				t.releaseAllExcept(o, o.cur)
				o.prevNode = nil
			}
			o.state = stReadNode

		case stReadNode:
			data, ok := t.lookupPage(o.cur)
			if !ok {
				if o.ioData != nil && o.ioFor == o.cur {
					data = o.ioData
				} else {
					o.ioData = nil
					if sr, ok := t.specInflight[o.cur]; ok && !sr.stale && !t.failed {
						// A live read-ahead of this page is already in
						// flight: coalesce onto it instead of issuing a
						// duplicate (pipeline.go wakes us when it lands —
						// or falls back to a demand read if it is dropped).
						sr.waiters = append(sr.waiters, specWaiter{op: o, since: t.now()})
						t.stats.SpecHits++
						return // I/O-blocked on the read-ahead
					}
					if !t.submitRead(o) {
						return // stalled or waiting
					}
					return // I/O-blocked
				}
			}
			o.ioData = nil
			if o.kind == KindSearch {
				// Point lookups never mutate, so they read the sealed page
				// image directly instead of materializing a Node — the
				// binary search runs over the encoded slot array and only
				// the matched value is copied out. Same page validation,
				// same latch protocol, same CPU charge; zero decode
				// allocations on a buffer hit.
				if t.searchStep(o, data) {
					return
				}
				continue
			}
			node, err := storage.DecodeNode(o.cur, data)
			if err != nil {
				t.failOp(o, err)
				return
			}
			t.charge(metrics.CatRealWork, t.cfg.Costs.NodeVisit)
			o.curNode = node
			o.state = stProcess

		case stProcess:
			if done := t.processNode(o); done {
				return
			}

		case stWriteNext:
			if o.wIdx >= len(o.writes) {
				t.finishOp(o)
				return
			}
			if !t.submitOpWrite(o) {
				return // stalled or waiting
			}
			return // I/O-blocked until this write completes

		case stJournal:
			if t.runJournal(o) {
				return
			}

		case stSyncRun:
			if t.journalOn {
				if t.runSyncJournaled(o) {
					return
				}
			} else if t.runSync(o) {
				return
			}

		case stDone:
			return

		default:
			panic(fmt.Sprintf("core: bad op state %d", o.state))
		}
	}
}

// searchStep advances a point search one level using the raw page image
// (see the KindSearch branch in process). Returns true when the op left
// the ready set (completed, failed, or latch-blocked on the child).
func (t *Tree) searchStep(o *Op, data []byte) bool {
	step, err := storage.SearchPage(data, o.key)
	if err != nil {
		t.failOp(o, err)
		return true
	}
	t.charge(metrics.CatRealWork, t.cfg.Costs.NodeVisit)
	if step.Leaf {
		o.Res.Found = step.Found
		o.Res.Value = step.Value
		t.finishOp(o)
		return true
	}
	o.cur = step.Child
	o.depth++
	o.state = stChildGranted
	if !t.acquireLatch(o, step.Child, latch.Shared) {
		return true // latch-blocked
	}
	return false
}

// processNode executes the index logic on o.curNode. Returns true when
// the op left the ready set (done or waiting).
func (t *Tree) processNode(o *Op) bool {
	node := o.curNode
	isUpd := o.kind == KindInsert || o.kind == KindUpdate

	if isUpd && node.IsLeaf() && !o.pessimistic && t.needsSplit(o, node) {
		// Optimistic descent found a leaf that must split: restart with
		// exclusive coupling (rare; see Op.pessimistic).
		if o.kind == KindUpdate {
			if _, found := node.SearchLeaf(o.key); !found {
				o.Res.Found = false
				t.finishOp(o)
				return true
			}
		}
		t.releaseAll(o)
		o.state = stEntry
		if !t.spaceGate(o) {
			return true // failed, or deferred before touching a page
		}
		o.pessimistic = true
		return false
	}

	if isUpd && o.pessimistic && t.needsSplit(o, node) {
		if o.kind == KindUpdate {
			// Confirm the key exists before splitting on its behalf.
			if node.IsLeaf() {
				if _, found := node.SearchLeaf(o.key); !found {
					o.Res.Found = false
					t.finishOp(o)
					return true
				}
			}
		}
		t.splitCurrent(o)
		// Re-process the (possibly new) current node.
		return false
	}

	if node.IsLeaf() {
		return t.leafAction(o)
	}

	// Inner node: the child to follow.
	if isUpd && o.pessimistic {
		// This node is split-safe: ancestors not pinned by modifications
		// can be released (latch coupling for updates, §III-B).
		t.releaseSafeAncestors(o)
	}
	idx := node.ChildIndex(o.key)
	child := node.Children[idx]
	if t.cfg.ScanReadAhead && o.kind == KindRange {
		t.specScanAhead(o, node, idx)
	}
	o.prevNode = node
	o.cur = child
	o.depth++
	o.state = stChildGranted
	if !t.acquireLatch(o, child, t.latchModeFor(o, int(node.Level)-1)) {
		return true // latch-blocked
	}
	return false
}

// latchModeFor returns the latch mode for a node at the given level on
// o's traversal: searches take shared latches everywhere; optimistic
// updates take shared latches on inner nodes and exclusive only on the
// leaf; pessimistic updates take exclusive everywhere.
func (t *Tree) latchModeFor(o *Op, level int) latch.Mode {
	if o.kind == KindSearch || o.kind == KindRange {
		return latch.Shared
	}
	if o.pessimistic || level <= 0 {
		return latch.Exclusive
	}
	return latch.Shared
}

// pessimisticCoupling reports whether o keeps ancestors latched across
// child acquisition.
func (t *Tree) pessimisticCoupling(o *Op) bool {
	return (o.kind == KindInsert || o.kind == KindUpdate) && o.pessimistic
}

// leafAction applies o to the leaf in o.curNode (which fits the change;
// splits were handled before entering here).
func (t *Tree) leafAction(o *Op) bool {
	node := o.curNode
	costs := &t.cfg.Costs
	switch o.kind {
	case KindSearch:
		if i, found := node.SearchLeaf(o.key); found {
			o.Res.Found = true
			o.Res.Value = node.Vals[i]
		}
		t.finishOp(o)
		return true

	case KindRange:
		i, _ := node.SearchLeaf(o.key)
		for ; i < len(node.Keys); i++ {
			if node.Keys[i] > o.endKey {
				t.finishOp(o)
				return true
			}
			o.Res.Pairs = append(o.Res.Pairs, KV{Key: node.Keys[i], Value: node.Vals[i]})
			if o.limit > 0 && len(o.Res.Pairs) >= o.limit {
				t.finishOp(o)
				return true
			}
		}
		if node.Next == storage.NilPage {
			t.finishOp(o)
			return true
		}
		// Continue into the right sibling with latch coupling; every key
		// there exceeds everything in this leaf, so scanning resumes from
		// the sibling's first slot.
		o.key = 0
		o.prevNode = node
		o.cur = node.Next
		o.depth++
		o.state = stChildGranted
		if !t.acquireLatch(o, o.cur, o.mode) {
			return true
		}
		return false

	case KindInsert, KindUpdate:
		if len(o.value) > storage.MaxValueSize {
			t.failOp(o, ErrValueTooLarge)
			return true
		}
		if !t.journalGate(o) {
			return true // deferred before mutating; re-runs via retryq
		}
		i, found := node.SearchLeaf(o.key)
		if o.kind == KindUpdate && !found {
			o.Res.Found = false
			t.finishOp(o)
			return true
		}
		_ = i
		replaced := node.InsertLeaf(o.key, o.value)
		o.Res.Found = replaced
		if !replaced {
			t.numKeys++
		}
		t.charge(metrics.CatRealWork, costs.LeafMutate)
		t.markModified(o, node)
		return t.beginWriteback(o)

	case KindDelete:
		i, found := node.SearchLeaf(o.key)
		if !found {
			t.finishOp(o)
			return true
		}
		if !t.journalGate(o) {
			return true // deferred before mutating; re-runs via retryq
		}
		node.DeleteLeafAt(i)
		o.Res.Found = true
		t.numKeys--
		t.charge(metrics.CatRealWork, costs.LeafMutate)
		t.markModified(o, node)
		return t.beginWriteback(o)

	default:
		panic("core: unexpected kind in leafAction: " + o.kind.String())
	}
}

// needsSplit decides whether the current node must be split before the
// insert/update proceeds (top-down preemptive splitting; see DESIGN.md).
func (t *Tree) needsSplit(o *Op, node *storage.Node) bool {
	if !node.IsLeaf() {
		return node.NumKeys() >= storage.InnerMaxKeys-innerSplitMargin
	}
	if len(o.value) > storage.MaxValueSize {
		return false // leafAction will fail the op cleanly
	}
	if i, found := node.SearchLeaf(o.key); found {
		return !node.LeafFitsReplace(i, len(o.value))
	}
	return !node.LeafFits(len(o.value))
}

// splitCurrent splits o.curNode (held X), inserting separators into the
// held parent (creating a new root when the current node is the root).
// For leaves it loops byte-balanced splits until the incoming value fits
// the half covering the key. All modified nodes stay latched and are
// queued for write-back.
func (t *Tree) splitCurrent(o *Op) {
	node := o.curNode
	parent := o.prevNode
	costs := &t.cfg.Costs

	if parent == nil {
		// Root split: hoist a new root above the current node.
		newRootID := t.alloc.Alloc()
		newRoot := storage.NewInner(newRootID, node.Level+1)
		newRoot.Children = []storage.PageID{node.ID}
		if !t.acquireLatch(o, newRootID, latch.Exclusive) {
			panic("core: fresh root latch contended")
		}
		t.markModified(o, newRoot)
		hoisted, newHeight := newRootID, t.height+1
		prevCommit := o.commit
		o.commit = func() {
			if prevCommit != nil {
				prevCommit()
			}
			t.rootID = hoisted
			t.height = newHeight
		}
		parent = newRoot
		o.prevNode = newRoot
	}

	if !node.IsLeaf() {
		rightID := t.alloc.Alloc()
		sep, right := node.SplitInner(rightID)
		if !t.acquireLatch(o, rightID, latch.Exclusive) {
			panic("core: fresh split node latch contended")
		}
		if t.pub != nil {
			o.pubSplits = append(o.pubSplits, pubSplit{left: node.ID, right: rightID, sep: sep})
		}
		parent.InsertInner(sep, rightID)
		t.charge(metrics.CatRealWork, costs.Split)
		t.stats.Splits++
		t.markModified(o, node)
		t.markModified(o, right)
		t.markModified(o, parent)
		if o.key >= sep {
			o.curNode = right
			o.cur = rightID
		}
		return
	}

	// Leaf: split until the half covering the key fits the value.
	target := node
	t.markModified(o, parent)
	for {
		var fits bool
		if i, found := target.SearchLeaf(o.key); found {
			fits = target.LeafFitsReplace(i, len(o.value))
		} else {
			fits = target.LeafFits(len(o.value))
		}
		if fits {
			break
		}
		if target.NumKeys() < 2 {
			// By the MaxValueSize bound a single-entry leaf always fits
			// one more maximal value; reaching here is a logic bug.
			panic("core: unsplittable leaf cannot fit value")
		}
		rightID := t.alloc.Alloc()
		sep, right := target.SplitLeaf(rightID)
		if !t.acquireLatch(o, rightID, latch.Exclusive) {
			panic("core: fresh split leaf latch contended")
		}
		if t.pub != nil {
			o.pubSplits = append(o.pubSplits, pubSplit{left: target.ID, right: rightID, sep: sep})
		}
		parent.InsertInner(sep, rightID)
		t.charge(metrics.CatRealWork, costs.Split)
		t.stats.Splits++
		t.markModified(o, target)
		t.markModified(o, right)
		if o.key >= sep {
			target = right
		}
	}
	if parent.NumKeys() > storage.InnerMaxKeys {
		panic("core: parent overflow after leaf multi-split")
	}
	o.curNode = target
	o.cur = target.ID
}

// markModified records node for write-back (ordered children-first at
// queue-build time) and pins the op as a write-latch holder for the
// prioritized scheduler.
func (t *Tree) markModified(o *Op, node *storage.Node) {
	for _, m := range o.modified {
		if m == node {
			return
		}
	}
	o.modified = append(o.modified, node)
	o.holdsWrite = true
}

// releaseSafeAncestors drops latches on every held node above the current
// one that was not modified (modified pages stay latched until their
// writes complete so no reader can observe in-flight data).
func (t *Tree) releaseSafeAncestors(o *Op) {
	if len(o.held) <= 1 {
		return
	}
	kept := o.held[:0]
	for _, h := range o.held {
		if h.id == o.cur || o.isModified(h.id) {
			kept = append(kept, h)
			continue
		}
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = kept
}

func (o *Op) isModified(id storage.PageID) bool {
	for _, m := range o.modified {
		if m.ID == id {
			return true
		}
	}
	return false
}

// beginWriteback finishes an update operation: strong mode queues one
// write per modified page (leaves before parents, meta last) and moves
// the op to the write pipeline; weak mode stores the pages into the
// read-write buffer and completes immediately, scheduling evicted victims
// in the background (§III-C). The return value follows the processNode
// convention: true iff the op left the ready set.
func (t *Tree) beginWriteback(o *Op) bool {
	if t.cfg.Persistence == WeakPersistence {
		for _, n := range o.modified {
			img := n.Encode()
			t.bufferWrite(n.ID, img)
			if t.pub != nil {
				// Captured for publication at finishOp: the table is updated
				// only when the whole op's page group is final, so readers
				// never see a half-applied split.
				o.pubImgs = append(o.pubImgs, writeReq{id: n.ID, data: img})
			}
		}
		if t.journalOn {
			// Acknowledge only once the redo group is durable: the buffered
			// pages may not reach the device until much later, but the WAL
			// can replay them after a crash.
			o.state = stJournal
			return false
		}
		t.finishOp(o)
		return true
	}
	// Strong: order children-first so a parent never points to an
	// unwritten child on the device.
	mods := append([]*storage.Node(nil), o.modified...)
	for i := 0; i < len(mods); i++ {
		for j := i + 1; j < len(mods); j++ {
			if mods[j].Level < mods[i].Level {
				mods[i], mods[j] = mods[j], mods[i]
			}
		}
	}
	for _, n := range mods {
		o.writes = append(o.writes, writeReq{id: n.ID, data: n.Encode()})
	}
	if o.commit != nil {
		// Root changed: persist the new meta image after everything else.
		meta := t.pendingMeta(o)
		o.writes = append(o.writes, writeReq{id: 0, data: meta.Encode()})
	}
	if t.journalOn {
		// Journal-first: the redo group becomes durable before the in-place
		// writes start, so a crash tearing the in-place update is healed by
		// replay.
		o.state = stJournal
		return false
	}
	o.state = stWriteNext
	return false // continue in process(): stWriteNext issues the first write
}

// pendingMeta builds the meta image as it must look after o commits.
func (t *Tree) pendingMeta(o *Op) *storage.Meta {
	// The commit closure updates rootID/height; peek at the new values by
	// inspecting the newest modified root-level node.
	root := t.rootID
	height := t.height
	for _, n := range o.modified {
		if int(n.Level)+1 > height {
			height = int(n.Level) + 1
			root = n.ID
		}
	}
	return &storage.Meta{
		Root:        root,
		Height:      uint8(height),
		Watermark:   t.alloc.Watermark(),
		NumKeys:     t.numKeys,
		SyncEpoch:   t.syncEpoch,
		WALStart:    t.walStart,
		WALBlocks:   t.walBlocks,
		WALGen:      t.walGenCurrent(),
		ShardID:     t.shardID,
		ShardCount:  t.shardCount,
		DeviceID:    t.deviceID,
		DeviceCount: t.deviceCount,
	}
}

// currentMeta builds the meta image for the tree's present in-memory
// state, preserving the journal region description.
func (t *Tree) currentMeta() *storage.Meta {
	return &storage.Meta{
		Root:        t.rootID,
		Height:      uint8(t.height),
		Watermark:   t.alloc.Watermark(),
		NumKeys:     t.numKeys,
		SyncEpoch:   t.syncEpoch,
		WALStart:    t.walStart,
		WALBlocks:   t.walBlocks,
		WALGen:      t.walGenCurrent(),
		ShardID:     t.shardID,
		ShardCount:  t.shardCount,
		DeviceID:    t.deviceID,
		DeviceCount: t.deviceCount,
	}
}

// walGenCurrent returns the journal generation a meta rewrite must carry.
func (t *Tree) walGenCurrent() uint32 {
	if t.wal != nil {
		return t.wal.Generation()
	}
	return t.metaWALGen
}

// ─── Page access ────────────────────────────────────────────────────────

// lookupPage consults the buffers (and, in weak mode, the in-flight
// write-back table) for the page image of id.
func (t *Tree) lookupPage(id storage.PageID) ([]byte, bool) {
	if t.rw != nil {
		if data, ok := t.rw.Get(id); ok {
			return data, true
		}
		if data, ok := t.inflight[id]; ok {
			// Refill the buffer: content is identical to what is being
			// persisted right now.
			if victim, ev := t.rw.FillOnRead(id, data); ev {
				t.queueBG(victim)
			}
			if t.pub != nil {
				t.pub.publishFill(id, data)
			}
			return data, true
		}
		return nil, false
	}
	if data, ok := t.ro.Get(id); ok {
		return data, true
	}
	return nil, false
}

// bufferWrite stores a weak-mode page update and schedules any evicted
// dirty victim for background write-back.
func (t *Tree) bufferWrite(id storage.PageID, data []byte) {
	t.specInvalidate(id)
	if victim, ev := t.rw.Write(id, data); ev {
		t.queueBG(victim)
	}
	// With buffering disabled (capacity 0) the write must still reach the
	// device: treat it as its own write-back.
	if t.rw.Len() == 0 {
		t.queueBG(buffer.Dirty{ID: id, Data: data, Epoch: 0})
	}
}

func (t *Tree) queueBG(d buffer.Dirty) {
	if t.failed {
		return // terminal state: durability is already lost, drop quietly
	}
	// Coalesce with a queued-but-unsubmitted write of the same page: the
	// newest image supersedes (same-page submission order must hold, or a
	// retried stale image could overwrite fresher data).
	for i := range t.bgQueue {
		if t.bgQueue[i].ID == d.ID {
			t.bgQueue[i].Dirty = d
			t.bgQueue[i].retries = 0
			t.bgQueue[i].due = 0
			t.drainBG()
			return
		}
	}
	t.bgQueue = append(t.bgQueue, bgWrite{Dirty: d})
	t.drainBG()
}

// drainBG submits queued background write-backs whose backoff has
// elapsed, leaving the rest queued when the submission queue is full.
func (t *Tree) drainBG() {
	if len(t.bgQueue) == 0 {
		return
	}
	if t.failed {
		t.bgQueue = t.bgQueue[:0]
		return
	}
	now := t.now()
	rest := t.bgQueue[:0]
	for i := 0; i < len(t.bgQueue); i++ {
		w := t.bgQueue[i]
		if w.due > now {
			rest = append(rest, w)
			continue
		}
		if !t.submitBG(w) {
			// Submission queue full: keep this and everything after it.
			rest = append(rest, t.bgQueue[i:]...)
			break
		}
	}
	t.bgQueue = rest
}

// submitBG issues one background write-back. Returns false when the
// submission queue is full (the entry stays queued). A transient error
// re-queues the write with backoff until its retry budget runs out;
// exhaustion or a non-transient status fails the device.
func (t *Tree) submitBG(w bgWrite) bool {
	data := w.Data
	id := w.ID
	epoch := w.Epoch
	retries := w.retries
	t.specInvalidate(id)
	t.inflight[id] = data
	submitted := t.now()
	cmd := &nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data}
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(nvme.OpWrite, submitted, now)
		if t.tr != nil {
			t.tr.Emit(tcIOWrite, classNone, 0, uint64(id), int64(submitted), int64(now.Sub(submitted)))
		}
		if cur, ok := t.inflight[id]; ok && &cur[0] == &data[0] {
			delete(t.inflight, id)
		}
		if c.Err != nil {
			t.stats.IOErrors++
			if !t.failed && transientIOErr(c.Err) && retries < t.cfg.MaxIORetries {
				t.stats.IORetries++
				t.requeueBG(bgWrite{
					Dirty:   buffer.Dirty{ID: id, Data: data, Epoch: epoch},
					retries: retries + 1,
					due:     now.Add(t.retryDelay(retries + 1)),
				})
			} else {
				t.enterFailed(c.Err)
			}
			return
		}
		if epoch != 0 {
			t.rw.MarkClean(id, epoch)
		}
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		delete(t.inflight, id)
		return false // queue full; retried by the main loop's drainBG
	}
	t.policy.OnSubmit(nvme.OpWrite, submitted)
	t.ioBlocked++
	t.stats.WritesIssued++
	return true
}

// requeueBG re-queues a failed background write for retry — unless a
// newer image of the same page is already queued, which supersedes it.
func (t *Tree) requeueBG(w bgWrite) {
	for i := range t.bgQueue {
		if t.bgQueue[i].ID == w.ID {
			return
		}
	}
	t.bgQueue = append(t.bgQueue, w)
}

// submitRead issues the read for o.cur. Returns false if the op stalled
// on a full queue (it re-queues via the stalled list).
func (t *Tree) submitRead(o *Op) bool {
	buf := make([]byte, storage.PageSize)
	submitted := t.now()
	id := o.cur
	cmd := &nvme.Command{Op: nvme.OpRead, LBA: uint64(id), Blocks: 1, Buf: buf}
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(nvme.OpRead, submitted, now)
		o.ioWait += now.Sub(submitted)
		if t.tr != nil {
			t.tr.Emit(tcIORead, uint16(o.kind), o.seq, uint64(id), int64(submitted), int64(now.Sub(submitted)))
		}
		err := c.Err
		if err == nil && !storage.VerifyPage(buf) {
			// Bit rot or a torn write: never admit a checksum-failed image
			// into the buffers. A re-read may heal transient corruption.
			err = errCorruptRead
		}
		if err != nil {
			if t.handleOpIOError(o, err) {
				return // parked in retryq; promoted after the backoff
			}
		} else {
			o.ioData = buf
			o.ioFor = id
			t.fillOnRead(id, buf)
		}
		t.pushReady(o, now)
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		t.stalled = append(t.stalled, o)
		return false
	}
	t.policy.OnSubmit(nvme.OpRead, submitted)
	t.ioBlocked++
	t.stats.ReadsIssued++
	return true
}

func (t *Tree) fillOnRead(id storage.PageID, data []byte) {
	if t.rw != nil {
		if victim, ev := t.rw.FillOnRead(id, data); ev {
			t.queueBG(victim)
		}
	} else {
		t.ro.FillOnRead(id, data)
	}
	if t.pub != nil {
		// Publish what entered the buffer: a fill carries no key-range
		// bound, so publishFill preserves any bound the frame already had
		// (page ranges only change at splits, which publish via finishOp).
		t.pub.publishFill(id, data)
	}
}

// submitOpWrite issues o.writes[o.wIdx] (strong mode). On completion the
// page enters the read-only buffer (§III-C's fill-on-write-complete rule)
// and the op advances to the next write.
func (t *Tree) submitOpWrite(o *Op) bool {
	w := o.writes[o.wIdx]
	t.specInvalidate(w.id)
	submitted := t.now()
	cmd := &nvme.Command{Op: nvme.OpWrite, LBA: uint64(w.id), Blocks: 1, Buf: w.data}
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(nvme.OpWrite, submitted, now)
		o.ioWait += now.Sub(submitted)
		if t.tr != nil {
			t.tr.Emit(tcIOWrite, uint16(o.kind), o.seq, uint64(w.id), int64(submitted), int64(now.Sub(submitted)))
		}
		if c.Err != nil {
			if t.handleOpIOError(o, c.Err) {
				return // parked in retryq; stWriteNext resubmits w.id
			}
		} else {
			if w.id != 0 {
				t.ro.FillOnWriteComplete(w.id, w.data)
			}
			o.wIdx++
		}
		t.pushReady(o, now)
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		t.stalled = append(t.stalled, o)
		return false
	}
	t.policy.OnSubmit(nvme.OpWrite, submitted)
	t.ioBlocked++
	t.stats.WritesIssued++
	return true
}

// ─── Fault handling: retries and the terminal failed state ─────────────

// handleOpIOError classifies an errored command on o's critical path.
// A transient status within the op's retry budget schedules a delayed
// re-run of the op's current state (which naturally resubmits the same
// I/O) and returns true; otherwise the tree enters the failed state,
// o.pendingErr is set, and false is returned — the caller pushes the op
// so process() can drain it.
func (t *Tree) handleOpIOError(o *Op, err error) bool {
	t.stats.IOErrors++
	if t.failed || !transientIOErr(err) || o.ioRetries >= t.cfg.MaxIORetries {
		t.enterFailed(err)
		o.pendingErr = ErrDeviceFailed
		return false
	}
	o.ioRetries++
	t.stats.IORetries++
	t.scheduleRetry(o, t.retryDelay(o.ioRetries))
	return true
}

// retryDelay is the exponential backoff before the attempt-th retry.
func (t *Tree) retryDelay(attempt int) time.Duration {
	d := t.cfg.RetryBackoff
	for i := 1; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	return d
}

// scheduleRetry parks o until its backoff elapses. Only ops with no
// other pending wake-up source (no outstanding commands, no latch
// request) may be parked here, so a promotion can never double-schedule
// an op that moved on in the meantime.
func (t *Tree) scheduleRetry(o *Op, d time.Duration) {
	t.retryq = append(t.retryq, retryEntry{op: o, due: t.now().Add(d)})
}

// promoteRetries pushes parked ops whose backoff elapsed back into the
// ready set. In the failed state every entry is promoted immediately so
// the pipeline drains without waiting out backoffs.
func (t *Tree) promoteRetries() {
	if len(t.retryq) == 0 {
		return
	}
	now := t.now()
	rest := t.retryq[:0]
	for _, e := range t.retryq {
		if t.failed || e.due <= now {
			t.pushReady(e.op, now)
		} else {
			rest = append(rest, e)
		}
	}
	t.retryq = rest
}

// enterFailed flips the tree into its terminal failed state: background
// write-backs are dropped and every parked operation is woken so it
// drains with ErrDeviceFailed. The working thread itself stays healthy —
// Run keeps going until every live op has completed, so no waiter is
// stranded and Close still works.
func (t *Tree) enterFailed(cause error) {
	if t.failed {
		return
	}
	t.failed = true
	t.failCause = cause
	t.bgQueue = t.bgQueue[:0]
	if t.pub != nil {
		// Withdraw the fast path: optimistic reads must not keep serving a
		// frozen snapshot of a failed tree. Every read now falls back to
		// the pipeline, which drains it with ErrDeviceFailed.
		t.pub.withdrawRoot()
	}
	t.promoteRetries()
	t.promoteJWaiters()
	for _, sr := range t.specInflight {
		// Wake ops parked on read-ahead reads: the failed drain at the
		// top of process() handles them, and the reads' own completions
		// will find no waiters left.
		t.promoteSpecWaiters(sr, t.now())
	}
}

// Failed reports whether the tree is in the terminal failed state.
// Worker-thread only.
func (t *Tree) Failed() bool { return t.failed }

// FailCause returns the device error that moved the tree into the failed
// state (nil while healthy). Worker-thread only.
func (t *Tree) FailCause() error { return t.failCause }

// ─── Redo journal (Config.Journal) ──────────────────────────────────────

// journalRecordBytes is the payload size of one redo record:
// opSeq(8) idx(1) cnt(1) pageID(8) page image(512).
const journalRecordBytes = 18 + storage.PageSize

// maxJournalGroup bounds the records one operation can journal: a leaf
// multi-split chain plus the parent path plus a new root plus the meta
// image stays far below this (see splitCurrent), and the gate reserves
// this much headroom before any mutation, so an admitted group always
// fits.
const maxJournalGroup = 24

// walWriteDepth bounds the WAL block writes the tree-level writer keeps
// in flight. Every redo record is a full page image spanning two log
// blocks, so one write at a time would leave the device idle for a round
// trip per block while the writer's ops hold their leaves. On a
// journaled churn mix, depths 4 and 32 measured no faster than 8.
const walWriteDepth = 8

// journalGate defers a mutating operation while the journal cannot
// accept its redo group: during a checkpoint's append fence, or when the
// region lacks headroom for a worst-case group (which triggers a
// checkpoint). The gate runs before the leaf is touched, so a deferred
// operation re-runs later with no state to undo — and a checkpoint's
// dirty-page snapshot is complete, because no page can become dirty
// behind it.
func (t *Tree) journalGate(o *Op) bool {
	if !t.journalOn {
		return true
	}
	if t.jFence {
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	if t.wal.Remaining() < maxJournalGroup*(journalRecordBytes+wal.FrameOverhead) {
		t.maybeCheckpoint()
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	return true
}

// runJournal drives stJournal: append the op's redo group (once), hand
// the flushed WAL blocks to the tree-level writer, then wait until the
// durability watermark covers the group's bytes before acknowledging
// (weak) or starting the in-place writes (strong). Returns true when
// the op left the ready set.
func (t *Tree) runJournal(o *Op) bool {
	if !o.jAppended {
		t.journalBuild(o)
		o.jAppended = true
		o.jLiveMark = true
		t.jLive++
		t.jwKick()
	}
	if o.jNeed > t.jDurable {
		// The op's records ride in the shared writer's queue; park until
		// the durability watermark covers them.
		if !o.jParked {
			o.jParked = true
			t.jWaiters = append(t.jWaiters, o)
		}
		return true
	}
	o.jLiveMark = false
	t.jLive--
	if t.cfg.Persistence == WeakPersistence {
		t.finishOp(o)
		return true
	}
	o.postJournal = true
	t.postJournalLive++
	o.state = stWriteNext
	return false
}

// journalBuild appends the op's redo group — one record per modified
// page, plus the meta image when the root moves — and collects the WAL
// block writes the flush produced. The gate guaranteed capacity, so
// append errors are logic bugs.
func (t *Tree) journalBuild(o *Op) {
	cnt := len(o.modified)
	if o.commit != nil {
		cnt++
	}
	if cnt > maxJournalGroup {
		panic(fmt.Sprintf("core: journal group of %d records exceeds the gate bound", cnt))
	}
	rec := make([]byte, journalRecordBytes)
	idx := 0
	emit := func(id storage.PageID, image []byte) {
		putJU64(rec[0:8], o.seq)
		rec[8] = byte(idx)
		rec[9] = byte(cnt)
		putJU64(rec[10:18], uint64(id))
		copy(rec[18:], image)
		if _, err := t.wal.Append(rec); err != nil {
			panic("core: journal append failed after gate: " + err.Error())
		}
		idx++
	}
	for _, n := range o.modified {
		emit(n.ID, n.Encode())
	}
	if o.commit != nil {
		emit(0, t.pendingMeta(o).Encode())
	}
	t.wal.Flush(func(bi uint64, data []byte) {
		t.jwEnqueue(storage.PageID(t.walStart+bi), data)
	})
	// After Flush, UsedBytes covers everything flushed so far; the
	// watermark is certified when the flush's final block completes.
	target := t.wal.UsedBytes()
	if n := len(t.jwq); n > 0 && target > t.jwq[n-1].certify {
		t.jwq[n-1].certify = target
	}
	o.jNeed = target
	t.stats.JournalAppends += uint64(cnt)
}

// jwEnqueue queues one WAL block image for the tree-level writer. A
// pending rewrite of the same block (the growing tail) is superseded in
// place — unless it is a write currently in flight (or already landed),
// in which case the newer image queues behind it and lands after,
// preserving log order.
func (t *Tree) jwEnqueue(id storage.PageID, data []byte) {
	// Flush reuses its block buffer between calls: copy.
	cp := make([]byte, len(data))
	copy(cp, data)
	if n := len(t.jwq); n > 0 {
		tail := t.jwq[n-1]
		if tail.id == id && !tail.inflight && !tail.done {
			tail.data = cp
			return
		}
	}
	t.jwq = append(t.jwq, &jwEntry{id: id, data: cp})
}

// jwActive reports whether the tree-level WAL writer still has work
// queued or in flight — the checkpoint pipeline's drain check.
func (t *Tree) jwActive() bool {
	return t.jwInflight > 0 || len(t.jwq) > 0
}

// jwKick keeps up to walWriteDepth WAL block writes in flight. Called
// after enqueueing, from completions, and from the main loop (to recover
// from a full submission queue). Writes of distinct log blocks overlap;
// an entry whose block has an earlier not-yet-landed entry (an in-flight
// tail rewrite) stays queued behind it so same-block submission order —
// and therefore log order on the device — is preserved. The durability
// watermark advances only over the contiguous completed prefix
// (jwAdvance), so an out-of-order completion can never certify bytes an
// earlier write could still revert.
func (t *Tree) jwKick() {
	if t.failed {
		return
	}
	for i := 0; i < len(t.jwq) && t.jwInflight < walWriteDepth; i++ {
		e := t.jwq[i]
		if e.inflight || e.done {
			continue
		}
		blocked := false
		for j := 0; j < i; j++ {
			if t.jwq[j].id == e.id && !t.jwq[j].done {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		if !t.jwSubmit(e) {
			return // queue full: the main loop kicks again
		}
	}
}

// jwSubmit issues one WAL block write. Returns false when the
// submission queue is full (the entry stays queued).
func (t *Tree) jwSubmit(e *jwEntry) bool {
	submitted := t.now()
	cmd := &nvme.Command{Op: nvme.OpWrite, LBA: uint64(e.id), Blocks: 1, Buf: e.data}
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(nvme.OpWrite, submitted, now)
		if t.tr != nil {
			t.tr.Emit(tcIOWrite, classNone, 0, uint64(e.id), int64(submitted), int64(now.Sub(submitted)))
		}
		t.jwInflight--
		e.inflight = false
		if c.Err != nil {
			t.stats.IOErrors++
			if !t.failed && transientIOErr(c.Err) && e.retries < t.cfg.MaxIORetries {
				e.retries++
				t.stats.IORetries++
				t.jwKick() // entry is queued again; resubmitted in order
				return
			}
			t.enterFailed(c.Err)
			t.jwq = t.jwq[:0]
			t.promoteJWaiters() // failed: wake parked ops so they drain
			return
		}
		e.done = true
		t.jwAdvance()
		t.jwKick()
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		return false
	}
	t.policy.OnSubmit(nvme.OpWrite, submitted)
	t.ioBlocked++
	t.stats.WritesIssued++
	e.inflight = true
	t.jwInflight++
	return true
}

// jwAdvance pops the contiguous completed prefix of the writer's queue,
// advancing the durability watermark over it and waking any ops it
// covers. A completed entry behind a still-pending earlier one stays
// queued: its certify bytes are not durable until everything before
// them has landed.
func (t *Tree) jwAdvance() {
	advanced := false
	for len(t.jwq) > 0 && t.jwq[0].done {
		if t.jwq[0].certify > t.jDurable {
			t.jDurable = t.jwq[0].certify
			advanced = true
		}
		t.jwq[0] = nil
		t.jwq = t.jwq[1:]
	}
	if advanced {
		t.promoteJWaiters()
	}
}

// promoteJWaiters wakes ops whose journal bytes became durable (or, in
// the failed state, every parked op so it can drain).
func (t *Tree) promoteJWaiters() {
	if len(t.jWaiters) == 0 {
		return
	}
	now := t.now()
	rest := t.jWaiters[:0]
	for _, o := range t.jWaiters {
		if t.failed || o.jNeed <= t.jDurable {
			o.jParked = false
			t.pushReady(o, now)
		} else {
			rest = append(rest, o)
		}
	}
	t.jWaiters = rest
}

// maybeCheckpoint spawns an internal checkpoint sync when the journal
// region is running out of headroom (3/4 full). Called from the main
// loop and from the journal gate.
func (t *Tree) maybeCheckpoint() {
	if !t.journalOn || t.failed || t.syncActive || t.checkpointPending {
		return
	}
	if t.wal.Remaining()*4 >= t.wal.CapBytes() {
		return
	}
	t.checkpointPending = true
	o := AcquireOp().InitSync()
	o.internal = true
	o.Done = func(o *Op) { o.Release() }
	t.adoptOp(o, stSyncRun)
}

// adoptOp injects a tree-spawned operation directly into the live set,
// bypassing the admission ring. Worker-thread only.
func (t *Tree) adoptOp(o *Op, st opState) {
	now := t.now()
	o.Res.Admitted = now
	o.enqueuedAt = now
	o.drainedAt = now
	t.seq++
	o.seq = t.seq
	o.tree = t
	if o.grantFn == nil {
		o.grantFn = func() { o.tree.grantLatch(o) }
	}
	o.state = st
	t.liveOps++
	if t.liveSet == nil {
		t.liveSet = make(map[uint64]*Op)
	}
	t.liveSet[o.seq] = o
	t.pushReady(o, now)
}

// putJU64 is little-endian encoding for journal record fields.
func putJU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getJU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// ─── Sync (weak persistence §III-C) ─────────────────────────────────────

// runSync drives a sync operation. Returns true when the op left the
// ready set.
func (t *Tree) runSync(o *Op) bool {
	if o.pendingErr != nil {
		if o.syncOutstanding > 0 {
			// Absorb the remaining completions before failing: failOp may
			// release the op back to the pool, and a late callback must
			// never run against a recycled op.
			return true
		}
		t.failOp(o, o.pendingErr)
		return true
	}
	if !o.syncStarted {
		o.syncStarted = true
		if t.rw != nil {
			o.syncQueue = t.rw.DirtyPages()
		}
		t.syncEpoch++
		meta := t.currentMeta()
		o.syncQueue = append(o.syncQueue, buffer.Dirty{ID: 0, Data: meta.Encode()})
	}
	// Submit as much of the queue as fits.
	for len(o.syncQueue) > 0 {
		d := o.syncQueue[0]
		id, data, epoch := d.ID, d.Data, d.Epoch
		submitted := t.now()
		cmd := &nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data}
		cmd.Callback = func(c nvme.Completion) {
			t.ioBlocked--
			now := t.now()
			t.policy.OnDetected(nvme.OpWrite, submitted, now)
			o.ioWait += now.Sub(submitted)
			if t.tr != nil {
				t.tr.Emit(tcIOWrite, uint16(o.kind), o.seq, uint64(id), int64(submitted), int64(now.Sub(submitted)))
			}
			o.syncOutstanding--
			if c.Err != nil {
				o.pendingErr = c.Err
			} else if id != 0 && t.rw != nil {
				t.rw.MarkClean(id, epoch)
			}
			t.pushReady(o, now)
		}
		t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
		if err := t.qp.Submit(cmd); err != nil {
			break // queue full: resume when completions drain
		}
		t.policy.OnSubmit(nvme.OpWrite, submitted)
		t.ioBlocked++
		t.stats.WritesIssued++
		o.syncOutstanding++
		o.syncQueue = o.syncQueue[1:]
	}
	if len(o.syncQueue) == 0 && o.syncOutstanding == 0 {
		if !o.syncFlushSent {
			o.syncFlushSent = true
			submitted := t.now()
			cmd := &nvme.Command{Op: nvme.OpFlush}
			cmd.Callback = func(c nvme.Completion) {
				t.ioBlocked--
				now := t.now()
				t.policy.OnDetected(nvme.OpRead, submitted, now)
				o.ioWait += now.Sub(submitted)
				if t.tr != nil {
					t.tr.Emit(tcIOWrite, uint16(o.kind), o.seq, 0, int64(submitted), int64(now.Sub(submitted)))
				}
				o.syncFlushDone = true
				if c.Err != nil {
					o.pendingErr = c.Err
				}
				t.pushReady(o, now)
			}
			t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
			if err := t.qp.Submit(cmd); err != nil {
				o.syncFlushSent = false
				t.stalled = append(t.stalled, o)
				return true
			}
			t.policy.OnSubmit(nvme.OpRead, submitted)
			t.ioBlocked++
			return true
		}
		if o.syncFlushDone {
			t.finishOp(o)
			return true
		}
	}
	return true // waiting for completions
}

// Journal checkpoint phases (runSyncJournaled).
const (
	spPages        = iota // write the dirty-page snapshot (weak mode)
	spPagesFlush          // barrier: snapshot + background write-backs durable
	spMetaLog             // journal the fenced meta image
	spMetaLogFlush        // barrier: the meta record is durable
	spMeta                // write the fenced meta page in place
	spMetaFlush           // barrier: meta durable
	spReset               // reset the log, zero its first block
	spResetFlush          // barrier: zero block durable
)

// runSyncJournaled drives a sync when the redo journal is on: a full
// checkpoint that makes every buffered page durable, fences the retired
// journal generation out of the meta page, and resets the log region.
// The phase order is load-bearing: data pages must be durable (flush
// barrier) before the meta fence advances, and the fence must be durable
// before the log is reset — at every crash point, either the records or
// the pages they describe survive. Always returns true (the pipeline
// never continues into another state).
func (t *Tree) runSyncJournaled(o *Op) bool {
	if o.pendingErr != nil {
		if o.syncOutstanding > 0 {
			return true // absorb outstanding completions before failing
		}
		t.failOp(o, o.pendingErr)
		return true
	}
	if !o.syncStarted {
		if t.syncActive {
			// Another sync owns the pipeline; run again once it finishes.
			t.scheduleRetry(o, t.cfg.RetryBackoff)
			return true
		}
		o.syncStarted = true
		o.syncFenced = true
		t.syncActive = true
		t.jFence = true
		if t.rw != nil {
			o.syncQueue = t.rw.DirtyPages()
		}
		o.syncPhase = spPages
	}
	for {
		switch o.syncPhase {
		case spPages:
			for len(o.syncQueue) > 0 {
				if !t.submitSyncPage(o, o.syncQueue[0]) {
					return true // queue full: stalled list resumes us
				}
				o.syncQueue = o.syncQueue[1:]
			}
			if o.syncOutstanding > 0 {
				return true
			}
			if len(t.bgQueue) > 0 || len(t.inflight) > 0 {
				// Background write-backs must land under the coming flush
				// barrier too; their completions do not reschedule this op,
				// so poll.
				t.scheduleRetry(o, t.cfg.RetryBackoff)
				return true
			}
			o.syncPhase = spPagesFlush
			o.syncSent = false

		case spPagesFlush, spMetaLogFlush, spMetaFlush, spResetFlush:
			if !o.syncSent {
				phase := o.syncPhase
				ok := t.submitSyncCmd(o, &nvme.Command{Op: nvme.OpFlush}, func() {
					switch phase {
					case spPagesFlush:
						o.syncPhase = spMetaLog
					case spMetaLogFlush:
						o.syncPhase = spMeta
					case spMetaFlush:
						o.syncPhase = spReset
					case spResetFlush:
						o.syncPhase = -1 // complete
					}
					o.syncSent = false
				})
				if !ok {
					return true // stalled
				}
				o.syncSent = true
			}
			return true

		case spMetaLog:
			if t.jLive > 0 || t.postJournalLive > 0 || t.jwActive() {
				// Ops whose records are in the retiring generation must
				// finish their in-place / buffered writes first — and the
				// shared WAL writer must drain — before the log is retired;
				// the fence keeps new ones out.
				t.scheduleRetry(o, t.cfg.RetryBackoff)
				return true
			}
			// Journal the fenced meta image before writing it in place: a
			// crash that tears page 0 mid-write is then always healable,
			// even when no root move left a meta record in this generation.
			// The image is rebuilt identically in spMeta (nothing that
			// feeds it can change while the fence is up).
			if !o.jAppended {
				rec := make([]byte, journalRecordBytes)
				putJU64(rec[0:8], o.seq)
				rec[8], rec[9] = 0, 1
				putJU64(rec[10:18], 0)
				t.syncMetaImage(rec[18:])
				if _, err := t.wal.Append(rec); err == nil {
					o.jBlocks = o.jBlocks[:0]
					t.wal.Flush(func(bi uint64, data []byte) {
						cp := make([]byte, len(data))
						copy(cp, data)
						o.jBlocks = append(o.jBlocks, writeReq{id: storage.PageID(t.walStart + bi), data: cp})
					})
					t.stats.JournalAppends++
				}
				o.jAppended = true
				o.jIdx = 0
			}
			for o.jIdx < len(o.jBlocks) {
				if o.syncOutstanding > 0 {
					return true
				}
				w := o.jBlocks[o.jIdx]
				cmd := &nvme.Command{Op: nvme.OpWrite, LBA: uint64(w.id), Blocks: 1, Buf: w.data}
				if !t.submitSyncCmd(o, cmd, func() { o.jIdx++ }) {
					return true
				}
				return true
			}
			if o.syncOutstanding > 0 {
				return true
			}
			o.syncPhase = spMetaLogFlush
			o.syncSent = false

		case spMeta:
			if !o.syncSent {
				buf := make([]byte, storage.PageSize)
				t.syncMetaImage(buf)
				cmd := &nvme.Command{Op: nvme.OpWrite, LBA: 0, Blocks: 1, Buf: buf}
				ok := t.submitSyncCmd(o, cmd, func() {
					t.syncEpoch++
					o.syncPhase = spMetaFlush
					o.syncSent = false
				})
				if !ok {
					return true
				}
				o.syncSent = true
			}
			return true

		case spReset:
			if !o.syncResetDone {
				// The physical zero-block write is issued below (and
				// retried if it fails); Reset's own write callback is a
				// no-op so the in-memory state advances exactly once.
				t.wal.Reset(func(uint64, []byte) {})
				t.jDurable = 0
				o.syncResetDone = true
			}
			if !o.syncSent {
				cmd := &nvme.Command{Op: nvme.OpWrite, LBA: t.walStart, Blocks: 1,
					Buf: make([]byte, storage.PageSize)}
				ok := t.submitSyncCmd(o, cmd, func() {
					o.syncPhase = spResetFlush
					o.syncSent = false
				})
				if !ok {
					return true
				}
				o.syncSent = true
			}
			return true

		case -1:
			t.stats.Checkpoints++
			t.finishOp(o) // opTeardown lifts the fence and syncActive
			return true

		default:
			panic(fmt.Sprintf("core: bad sync phase %d", o.syncPhase))
		}
	}
}

// syncMetaImage encodes the checkpoint's fenced meta page into buf: the
// present tree state with the sync epoch advanced and the journal
// generation bumped past every record in the region. Both spMetaLog and
// spMeta call it; with the fence up and the journal quiesced its inputs
// cannot change between phases, so the two images are byte-identical.
func (t *Tree) syncMetaImage(buf []byte) {
	meta := t.currentMeta()
	meta.SyncEpoch = t.syncEpoch + 1
	meta.WALGen = t.wal.Generation() + 1
	meta.EncodeTo(buf)
}

// submitSyncPage issues one dirty-page write for the checkpoint
// snapshot. A transient error re-appends the page to the op's queue
// (consuming retry budget); exhaustion or a non-transient status fails
// the device. Returns false when the submission queue is full (the
// caller keeps the entry queued and the stalled list reschedules).
func (t *Tree) submitSyncPage(o *Op, d buffer.Dirty) bool {
	id, data, epoch := d.ID, d.Data, d.Epoch
	t.specInvalidate(id)
	submitted := t.now()
	cmd := &nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data}
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(nvme.OpWrite, submitted, now)
		o.ioWait += now.Sub(submitted)
		if t.tr != nil {
			t.tr.Emit(tcIOWrite, uint16(o.kind), o.seq, uint64(id), int64(submitted), int64(now.Sub(submitted)))
		}
		o.syncOutstanding--
		if c.Err != nil {
			t.stats.IOErrors++
			if !t.failed && transientIOErr(c.Err) && o.ioRetries < t.cfg.MaxIORetries {
				o.ioRetries++
				t.stats.IORetries++
				o.syncQueue = append(o.syncQueue, d)
			} else {
				t.enterFailed(c.Err)
				o.pendingErr = ErrDeviceFailed
			}
		} else if id != 0 && t.rw != nil {
			t.rw.MarkClean(id, epoch)
		}
		t.pushReady(o, now)
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		t.stalled = append(t.stalled, o)
		return false
	}
	t.policy.OnSubmit(nvme.OpWrite, submitted)
	t.ioBlocked++
	t.stats.WritesIssued++
	o.syncOutstanding++
	return true
}

// submitSyncCmd issues one phase command (flush, meta write, zero-block
// write) for the journaled sync pipeline. On success onOK runs in the
// completion callback; a transient error clears syncSent so the phase
// resubmits; a terminal one fails the device. Returns false when the
// submission queue is full.
func (t *Tree) submitSyncCmd(o *Op, cmd *nvme.Command, onOK func()) bool {
	submitted := t.now()
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(cmd.Op, submitted, now)
		o.ioWait += now.Sub(submitted)
		if t.tr != nil {
			t.tr.Emit(tcIOWrite, uint16(o.kind), o.seq, cmd.LBA, int64(submitted), int64(now.Sub(submitted)))
		}
		o.syncOutstanding--
		if c.Err != nil {
			t.stats.IOErrors++
			if !t.failed && transientIOErr(c.Err) && o.ioRetries < t.cfg.MaxIORetries {
				o.ioRetries++
				t.stats.IORetries++
				o.syncSent = false // the phase resubmits
			} else {
				t.enterFailed(c.Err)
				o.pendingErr = ErrDeviceFailed
			}
		} else if onOK != nil {
			onOK()
		}
		t.pushReady(o, now)
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		t.stalled = append(t.stalled, o)
		return false
	}
	t.policy.OnSubmit(cmd.Op, submitted)
	t.ioBlocked++
	if cmd.Op == nvme.OpWrite {
		t.stats.WritesIssued++
	}
	o.syncOutstanding++
	return true
}

// ─── Latch helpers ──────────────────────────────────────────────────────

// acquireLatch requests a latch for o, returning true on immediate grant.
// On a queued request the op's reusable grant callback (an op waits on at
// most one latch at a time, so the request parameters ride in
// o.pendingLatch rather than a fresh closure) pushes o back to ready.
func (t *Tree) acquireLatch(o *Op, id storage.PageID, mode latch.Mode) bool {
	t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
	o.pendingLatch = heldLatch{id: id, mode: mode}
	granted := t.latches.Acquire(id, mode, o.grantFn)
	if granted {
		o.held = append(o.held, o.pendingLatch)
	} else {
		o.latchFrom = t.now() // contended: wait starts now
	}
	return granted
}

// grantLatch is the body of every op's reusable grant callback.
func (t *Tree) grantLatch(o *Op) {
	now := t.now()
	if w := now.Sub(o.latchFrom); w > 0 {
		o.latchWait += w
		if t.tr != nil {
			t.tr.Emit(tcLatchWait, uint16(o.kind), o.seq, uint64(o.pendingLatch.id), int64(o.latchFrom), int64(w))
		}
	}
	o.held = append(o.held, o.pendingLatch)
	t.pushReady(o, now)
}

// releaseLatch drops one held latch by id.
func (t *Tree) releaseLatch(o *Op, id storage.PageID) {
	for i, h := range o.held {
		if h.id == id {
			o.held = append(o.held[:i], o.held[i+1:]...)
			t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
			t.latches.Release(id, h.mode)
			return
		}
	}
	panic(fmt.Sprintf("core: releasing latch not held: page %d", id))
}

// releaseAllExcept drops every held latch except the one on keep.
func (t *Tree) releaseAllExcept(o *Op, keep storage.PageID) {
	kept := o.held[:0]
	for _, h := range o.held {
		if h.id == keep {
			kept = append(kept, h)
			continue
		}
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = kept
}

// releaseAll drops every held latch.
func (t *Tree) releaseAll(o *Op) {
	for _, h := range o.held {
		t.charge(metrics.CatSync, t.cfg.Costs.LatchOp)
		t.latches.Release(h.id, h.mode)
	}
	o.held = o.held[:0]
}

// ─── Completion ─────────────────────────────────────────────────────────

func (t *Tree) finishOp(o *Op) {
	if o.pendingErr != nil {
		t.failOp(o, o.pendingErr)
		return
	}
	if o.commit != nil {
		o.commit()
		o.commit = nil
	}
	// Publish the op's page group before the pending-key mark is released
	// in opTeardown and before Done acks the caller: an optimistic read
	// racing this completion either sees the key still pending (and takes
	// the pipeline) or sees the published new pages — never stale data
	// after the ack (acked-write visibility).
	t.publishGroup(o)
	t.releaseAll(o)
	t.opTeardown(o)
	o.state = stDone
	o.Res.Completed = t.now()
	t.liveOps--
	delete(t.liveSet, o.seq)
	t.stats.Completed[o.kind]++
	lat := o.Res.Latency()
	t.stats.Latency.Record(lat)
	if o.kind == KindSearch || o.kind == KindRange {
		t.stats.SearchLatency.Record(lat)
	} else {
		t.stats.UpdateLatency.Record(lat)
	}
	t.completeOp(o)
}

func (t *Tree) failOp(o *Op, err error) {
	o.Res.Err = err
	t.releaseAll(o)
	t.opTeardown(o)
	o.state = stDone
	o.Res.Completed = t.now()
	t.liveOps--
	delete(t.liveSet, o.seq)
	t.stats.Completed[o.kind]++
	t.completeOp(o)
}

// opTeardown releases every piece of journal/sync pipeline state an op
// may hold when it terminates, successfully or not. It must be
// idempotent: finishOp falls through to failOp when pendingErr is set,
// and both call it.
func (t *Tree) opTeardown(o *Op) {
	t.unnotePending(o)
	if o.keyGated {
		o.keyGated = false
		if next := o.keyNext; next != nil {
			// Hand the key to the next parked op in admission order. The
			// successor pointer must be severed before completeOp recycles
			// this op into the pool.
			o.keyNext = nil
			t.pushReady(next, t.now())
		} else if t.keyDeps[o.key] == o {
			delete(t.keyDeps, o.key)
		}
	}
	t.splitReserved -= o.splitReserve
	o.splitReserve = 0
	if o.jLiveMark {
		o.jLiveMark = false
		t.jLive--
	}
	if o.postJournal {
		o.postJournal = false
		t.postJournalLive--
	}
	if o.jParked {
		o.jParked = false
		for i, w := range t.jWaiters {
			if w == o {
				t.jWaiters = append(t.jWaiters[:i], t.jWaiters[i+1:]...)
				break
			}
		}
	}
	if o.syncFenced {
		o.syncFenced = false
		t.jFence = false
		t.syncActive = false
	}
	if o.internal && o.kind == KindSync {
		t.checkpointPending = false
	}
}

// completeOp records the op's stage timings and runs its completion
// callback, timing the delivery. The callback may Release o back to the
// pool, so every field used afterwards is captured first.
func (t *Tree) completeOp(o *Op) {
	t.unnoteEntered(o)
	t.recordStages(o)
	if t.tr != nil {
		t.tr.Emit(tcOp, uint16(o.kind), o.seq, uint64(o.key), int64(o.Res.Admitted), int64(o.Res.Latency()))
		if o.Span != 0 {
			// Cross-process link: lets trace.Stitch tie this op back to the
			// serving span that produced it. Never fires in simulation runs
			// (nothing sets Span there), keeping sim traces byte-identical.
			t.tr.Emit(tcSpan, uint16(o.kind), o.seq, o.Span, int64(o.Res.Completed), trace.Instant)
		}
	}
	kind, seq, done := o.kind, o.seq, o.Res.Completed
	if o.Done != nil {
		o.Done(o)
		d := t.now().Sub(done)
		t.stats.Stages.Record(metrics.StageDeliver, int(kind), d)
		if t.tr != nil && d > 0 {
			t.tr.Emit(tcDeliver, uint16(kind), seq, 0, int64(done), int64(d))
		}
	}
}

// recordStages folds a completing op's timestamps into the per-stage
// histograms. Admit-wait, latch-wait and io-wait are recorded only when
// the op actually waited there (see Stats.Stages).
func (t *Tree) recordStages(o *Op) {
	st := t.stats.Stages
	k := int(o.kind)
	if aw := o.enqueuedAt.Sub(o.Res.Admitted); aw > 0 {
		st.Record(metrics.StageAdmitWait, k, aw)
	}
	st.Record(metrics.StageInbox, k, o.drainedAt.Sub(o.enqueuedAt))
	st.Record(metrics.StageQueueWait, k, o.queueWait)
	// Fold the queue-wait into the cross-thread EWMA (worker is the sole
	// writer; admission governors read it — see QueueWaitEWMA).
	old := t.qwEWMA.Load()
	t.qwEWMA.Store(old - old/8 + int64(o.queueWait)/8)
	if o.latchWait > 0 {
		st.Record(metrics.StageLatchWait, k, o.latchWait)
	}
	if o.ioWait > 0 {
		st.Record(metrics.StageIOWait, k, o.ioWait)
	}
	st.Record(metrics.StageTotal, k, o.Res.Latency())
}

// DebugState summarizes internal state for diagnostics.
func (t *Tree) DebugState() string {
	return fmt.Sprintf("live=%d ioBlocked=%d ready=%d inbox=%d stalled=%d bg=%d inflight=%d latchNodes=%d",
		t.liveOps, t.ioBlocked, t.ready.Len(), t.inbox.Len(), len(t.stalled), len(t.bgQueue), len(t.inflight), t.latches.ActiveNodes())
}

// DebugCounters reports push/pop counts.
func (t *Tree) DebugCounters() (uint64, uint64) { return t.dbgPush, t.dbgPop }

// DebugOps dumps every live operation for diagnostics.
func (t *Tree) DebugOps() string {
	out := ""
	for _, o := range t.liveSet {
		out += fmt.Sprintf("op%d %s key=%d state=%d cur=%d depth=%d inReady=%v held=%v mods=%d\n",
			o.seq, o.kind, o.key, o.state, o.cur, o.depth, o.inReady, o.held, len(o.modified))
	}
	return out
}

// DebugLatches dumps the latch table for diagnostics.
func (t *Tree) DebugLatches() string { return t.latches.Dump() }
