package core

// Scan sibling read-ahead (Config.ScanReadAhead): the pipelined polled
// loop of DESIGN.md §17.
//
// A range scan crossing a leaf boundary otherwise discovers each sibling
// only from the previous leaf's Next link — one device round trip per
// leaf, strictly serial, while the NVMe queue idles. The level-1 parent
// the scan descends through already lists those siblings in order, so
// the worker issues their reads together as the scan enters the leaf
// level and the serial chain collapses into one parallel batch. An
// operation that reaches a page whose read-ahead is still in flight
// parks on it instead of issuing a duplicate read.
//
// Read-ahead is advisory and strictly bounded:
//
//   - at most specInflightMax read-ahead reads are in flight, and half
//     the submission ring is reserved for demand traffic;
//   - a completed image is installed only after validation: an
//     intervening write of the same page (any write-submission site
//     calls specInvalidate, which marks the in-flight read stale and
//     wakes its waiters immediately so they re-read the fresh image from
//     the buffers instead of waiting out a doomed read), residency
//     established via another path, a device error, or a checksum
//     failure drops the image (SpecCancelled) — so a read-ahead can
//     never publish a stale page over a newer write, no matter how
//     device completions reorder;
//   - read-ahead reads carry no retry budget. An operation that parked
//     on one (SpecHits) is simply woken on cancellation and falls back
//     to its own demand read with its own full retry budget, so the
//     fault-handling paths are unchanged.
//
// Everything here runs on the working thread; the single-writer
// invariant is untouched. With the option off (the default) none of
// these paths execute and simulated schedules are byte-identical.

import (
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/storage"
)

// specWaiter is an operation parked on an in-flight read-ahead read,
// with the instant it parked (its I/O wait accrues from there).
type specWaiter struct {
	op    *Op
	since sim.Time
}

// specRead tracks one read-ahead page read between submission and
// completion. stale flips when a write of the page is submitted while
// the read is in flight (specInvalidate), which vetoes the install.
type specRead struct {
	id      storage.PageID
	stale   bool
	waiters []specWaiter
}

// specResident looks a page up in the buffers with no fill side effects
// (unlike lookupPage, which refills from the in-flight write-back map).
func (t *Tree) specResident(id storage.PageID) ([]byte, bool) {
	if t.rw != nil {
		if data, ok := t.rw.Get(id); ok {
			return data, true
		}
		data, ok := t.inflight[id]
		return data, ok
	}
	return t.ro.Get(id)
}

// specIssue submits a read-ahead read of id. Returns true when a new
// command was issued. A read already in flight for the page is left
// alone; a full submission queue drops the read — demand traffic has
// priority, and there is no stalled-list entry to lose.
func (t *Tree) specIssue(id storage.PageID) bool {
	if _, ok := t.specInflight[id]; ok {
		return false
	}
	if t.specInflight == nil {
		t.specInflight = make(map[storage.PageID]*specRead)
	}
	sr := &specRead{id: id}
	buf := make([]byte, storage.PageSize)
	submitted := t.now()
	cmd := &nvme.Command{Op: nvme.OpRead, LBA: uint64(id), Blocks: 1, Buf: buf}
	cmd.Callback = func(c nvme.Completion) {
		t.ioBlocked--
		now := t.now()
		t.policy.OnDetected(nvme.OpRead, submitted, now)
		if t.tr != nil {
			t.tr.Emit(tcIORead, classNone, 0, uint64(id), int64(submitted), int64(now.Sub(submitted)))
		}
		delete(t.specInflight, id)
		t.specComplete(sr, buf, c.Err, now)
	}
	t.charge(metrics.CatNVMe, t.cfg.Costs.IOSubmit)
	if err := t.qp.Submit(cmd); err != nil {
		return false
	}
	t.policy.OnSubmit(nvme.OpRead, submitted)
	t.ioBlocked++
	t.stats.ReadsIssued++
	t.stats.SpecIssued++
	t.specInflight[id] = sr
	return true
}

// specComplete validates and installs one landed read-ahead image and
// wakes the operations parked on it.
func (t *Tree) specComplete(sr *specRead, buf []byte, err error, now sim.Time) {
	_, resident := t.specResident(sr.id)
	if err != nil || resident || sr.stale || !storage.VerifyPage(buf) {
		if err != nil {
			t.stats.IOErrors++
		}
		// Drop the image. Waiters wake and issue their own demand reads
		// (fresh image, full retry budget).
		t.stats.SpecCancelled++
		t.promoteSpecWaiters(sr, now)
		return
	}
	t.fillOnRead(sr.id, buf)
	if len(sr.waiters) == 0 {
		t.stats.SpecWasted++
	}
	t.promoteSpecWaiters(sr, now)
}

// specScanAhead prefetches right siblings of the leaf a range scan is
// about to enter, from the level-1 parent in hand: at most
// specScanAheadDepth leaves, never beyond the scan's end key, within
// the in-flight cap and the demand-reserved queue headroom.
func (t *Tree) specScanAhead(o *Op, node *storage.Node, idx int) {
	if t.failed || node.Level != 1 {
		return
	}
	issued := 0
	for j := idx + 1; j < len(node.Children) && issued < specScanAheadDepth; j++ {
		if node.Keys[j-1] > o.endKey {
			return
		}
		if len(t.specInflight) >= specInflightMax ||
			t.qp.Outstanding() >= t.cfg.QueueDepth/2 {
			return
		}
		id := node.Children[j]
		if _, ok := t.specResident(id); ok {
			continue
		}
		if t.specIssue(id) {
			issued++
		}
	}
}

const (
	// specScanAheadDepth bounds how many sibling leaves one scan
	// prefetches: at the default 64-pair scan length and ~20-byte
	// entries a scan spans about four leaves. A longer scan falls back to
	// serial Next-link reads past the prefetched window (and past this
	// parent's last child).
	specScanAheadDepth = 4
	// specInflightMax caps read-ahead reads in flight per tree, so
	// concurrent scans cannot crowd out demand reads.
	specInflightMax = 16
)

// specInvalidate is called by every write-submission site (in-buffer
// updates, background write-backs, strong-mode op writes, checkpoint
// page writes) with the page being written. If a read-ahead of that
// page is in flight its device image is now stale: mark it so the
// completion drops it, and wake its waiters immediately — the write
// just made the fresh image resident (buffer or in-flight table), so
// they re-read it at once instead of waiting out a doomed read. With no
// read in flight for the page (the common case, and always when
// read-ahead is off) this is a nil-map lookup and nothing more.
func (t *Tree) specInvalidate(id storage.PageID) {
	sr, ok := t.specInflight[id]
	if !ok || sr.stale {
		return
	}
	sr.stale = true
	t.promoteSpecWaiters(sr, t.now())
}

// promoteSpecWaiters wakes every operation parked on sr, crediting the
// park time as I/O wait (the read they coalesced onto was doing their
// I/O). Also called from enterFailed so no waiter is ever stranded on a
// read whose completion the failed state will ignore.
func (t *Tree) promoteSpecWaiters(sr *specRead, now sim.Time) {
	for _, w := range sr.waiters {
		w.op.ioWait += now.Sub(w.since)
		if t.tr != nil {
			t.tr.Emit(tcIORead, uint16(w.op.kind), w.op.seq, uint64(sr.id), int64(w.since), int64(now.Sub(w.since)))
		}
		t.pushReady(w.op, now)
	}
	sr.waiters = sr.waiters[:0]
}
