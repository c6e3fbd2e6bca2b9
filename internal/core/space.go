package core

import (
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/storage"
)

// Page-space accounting: each tree allocates pages below a fixed limit,
// and an insert that must split reserves its worst case before it
// touches anything (see DESIGN.md §11, "Out of space").

// pageLimit is the first page id the tree may not allocate: the start of
// the journal region the superblock records (reserved whether or not this
// session journals), else the end of the device or partition.
func pageLimit(dev nvme.Device, meta *storage.Meta) storage.PageID {
	if meta.WALStart > 0 {
		return storage.PageID(meta.WALStart)
	}
	return storage.PageID(dev.NumBlocks())
}

// spaceGate reserves allocator headroom for an operation about to
// restart pessimistically (the only path that splits), before it has
// touched any page. When even an idle tree could not hold the split, the
// operation fails with ErrNoSpace; when only other in-flight splits hold
// the headroom, it retries after a backoff. The reservation is returned
// at teardown. Returns false when the op left the ready set.
func (t *Tree) spaceGate(o *Op) bool {
	// The most one pessimistic insert allocates: a split per inner level,
	// a new root, and a leaf multi-split whose extra pages the parent's
	// innerSplitMargin slack caps — plus one level of slack for a root
	// another operation hoists during the descent.
	need := uint64(t.height + 1 + innerSplitMargin)
	free := t.alloc.Remaining()
	if free < need {
		t.failOp(o, ErrNoSpace)
		return false
	}
	if free-t.splitReserved < need {
		t.scheduleRetry(o, t.cfg.RetryBackoff)
		return false
	}
	o.splitReserve = need
	t.splitReserved += need
	return true
}
