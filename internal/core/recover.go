package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// walGeometry carves a journal region out of the top of a device:
// one-eighth of the blocks, clamped to [256, 8192]. Devices too small to
// spare half their capacity get no region (and therefore no journal).
func walGeometry(numBlocks uint64) (start, blocks uint64) {
	blocks = numBlocks / 8
	if blocks > 8192 {
		blocks = 8192
	}
	if blocks < 256 {
		blocks = 256
	}
	if blocks >= numBlocks/2 {
		return 0, 0
	}
	return numBlocks - blocks, blocks
}

// RecoverReport describes what Recover found and did.
type RecoverReport struct {
	// Journaled reports whether a journal region was present and scanned.
	Journaled bool
	// Generation is the journal generation whose records were replayed
	// (0 when the region held nothing live).
	Generation uint32
	// Records is the number of valid journal records scanned.
	Records int
	// Groups is the number of complete operation groups replayed.
	Groups int
	// DroppedTail is the number of trailing records discarded because
	// their group was incomplete (a crash mid-append).
	DroppedTail int
	// StaleSkipped counts records fenced out by the meta page's
	// generation watermark (retired by a checkpoint before the crash).
	StaleSkipped int
	// PagesRedone is the number of page images written back.
	PagesRedone int
	// KeysCounted is the key count established by the verification walk.
	KeysCounted uint64
	// MetaRepaired reports whether the meta page had to be rebuilt (torn
	// superblock recovered from a journaled image or the walk).
	MetaRepaired bool
}

// recoverIO batches all of recovery's synchronous I/O through one queue
// pair: the simulated device never recycles queue-pair slots, so the
// per-call AllocQueuePair in syncIO would exhaust it on a large region.
type recoverIO struct {
	dev nvme.Device
	qp  nvme.QueuePair
}

func newRecoverIO(dev nvme.Device) (*recoverIO, error) {
	qp, err := dev.AllocQueuePair(32)
	if err != nil {
		return nil, err
	}
	return &recoverIO{dev: dev, qp: qp}, nil
}

func (r *recoverIO) close() { r.qp.Free() }

func (r *recoverIO) do(cmd *nvme.Command) error {
	done := false
	var ioErr error
	cmd.Callback = func(c nvme.Completion) { done = true; ioErr = c.Err }
	if err := r.qp.Submit(cmd); err != nil {
		return err
	}
	// See syncIO: Advance covers simulated backings (including partition
	// or fault wrappers); anything still pending falls back to polling.
	if sd, ok := r.dev.(interface{ Advance() }); ok {
		sd.Advance()
		r.qp.Probe(0)
		if done {
			return ioErr
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !done {
		r.qp.Probe(0)
		if time.Now().After(deadline) {
			return fmt.Errorf("core: recovery I/O timed out")
		}
		runtime.Gosched() // let a real-time device's goroutines serve it
	}
	return ioErr
}

func (r *recoverIO) read(lba, blocks uint64, buf []byte) error {
	return r.do(&nvme.Command{Op: nvme.OpRead, LBA: lba, Blocks: int(blocks), Buf: buf})
}

func (r *recoverIO) write(id storage.PageID, data []byte) error {
	return r.do(&nvme.Command{Op: nvme.OpWrite, LBA: uint64(id), Blocks: 1, Buf: data})
}

func (r *recoverIO) flush() error {
	return r.do(&nvme.Command{Op: nvme.OpFlush})
}

// Recover replays the journal region of a crashed device image and
// verifies the resulting tree, leaving the device in a state a fresh Tree
// can open. It is idempotent: running it twice (a crash during recovery)
// converges to the same image.
//
// The sequence is: read the superblock (tolerating a torn one — its
// replacement may be sitting in the journal); scan the WAL region; drop
// record groups fenced out by the superblock's generation watermark and
// any incomplete trailing group; redo surviving page images in log order;
// then walk the tree from the root, discarding nothing but verifying
// every reachable page decodes (a torn page that escaped the journal is a
// hard error — it would mean an acknowledged write was lost), recounting
// keys and the page-id watermark; finally persist a repaired superblock
// with a bumped generation fence and zero the region's first block.
func Recover(dev nvme.Device) (*storage.Meta, *RecoverReport, error) {
	rep := &RecoverReport{}
	io, err := newRecoverIO(dev)
	if err != nil {
		return nil, nil, err
	}
	defer io.close()

	pageSize := uint64(storage.PageSize)
	if bs := uint64(dev.BlockSize()); bs != pageSize {
		return nil, nil, fmt.Errorf("core: recover: block size %d, want %d", bs, pageSize)
	}

	// Superblock: may be torn (crash during a meta write). A torn meta is
	// recoverable when the journal holds its replacement image.
	metaBuf := make([]byte, storage.PageSize)
	if err := io.read(0, 1, metaBuf); err != nil {
		return nil, nil, err
	}
	meta, metaErr := storage.DecodeMeta(metaBuf)

	var walStart, walBlocks uint64
	var fenceGen uint32
	if metaErr == nil {
		if meta.WALBlocks == 0 || meta.WALStart == 0 {
			// Journal-less image (bulk-loaded, or formatted before the
			// region existed): nothing to replay, nothing to verify.
			return meta, rep, nil
		}
		walStart, walBlocks = meta.WALStart, meta.WALBlocks
		fenceGen = meta.WALGen
	} else {
		// Torn superblock: fall back to the region Format would have laid
		// out. If the device never had one, there is nothing to recover
		// from and the image is unusable.
		walStart, walBlocks = walGeometry(dev.NumBlocks())
		if walBlocks == 0 {
			return nil, nil, fmt.Errorf("core: recover: unreadable meta and no journal region: %w", metaErr)
		}
	}
	rep.Journaled = true

	// Read the whole region in bounded chunks.
	region := make([]byte, walBlocks*pageSize)
	const chunk = 128
	for off := uint64(0); off < walBlocks; off += chunk {
		n := walBlocks - off
		if n > chunk {
			n = chunk
		}
		if err := io.read(walStart+off, n, region[off*pageSize:(off+n)*pageSize]); err != nil {
			return nil, nil, err
		}
	}

	records, gen := wal.Recover(region)
	rep.Records = len(records)
	if gen < fenceGen {
		// Every scanned record was retired by a checkpoint whose meta
		// fence is durable; the pages they describe are already on disk.
		rep.StaleSkipped = len(records)
		records = nil
	} else if len(records) > 0 {
		rep.Generation = gen
	}

	// Parse records into operation groups. A group is cnt records
	// [opSeq, idx 0..cnt-1, pageID, image] emitted atomically by one
	// operation; only complete groups are redone — an incomplete trailing
	// group is an operation that was never acknowledged.
	type redoPage struct {
		id    storage.PageID
		image []byte
	}
	var redo []redoPage
	var group []redoPage
	var groupSeq uint64
	var journaledMeta []byte // newest journaled page-0 image, if any
	flushGroup := func() {
		for _, p := range group {
			if p.id == 0 {
				journaledMeta = p.image
			}
			redo = append(redo, p)
		}
		rep.Groups++
		group = group[:0]
	}
	for _, rec := range records {
		if len(rec) != journalRecordBytes {
			break // foreign record shape: stop scanning, drop the rest
		}
		seq := getJU64(rec[0:8])
		idx := int(rec[8])
		cnt := int(rec[9])
		id := storage.PageID(getJU64(rec[10:18]))
		if cnt < 1 || idx >= cnt {
			break // malformed: stop scanning, drop the rest
		}
		if idx == 0 {
			group = group[:0]
			groupSeq = seq
		} else if seq != groupSeq || idx != len(group) {
			group = group[:0]
			continue // out-of-order fragment: unusable
		}
		img := make([]byte, storage.PageSize)
		copy(img, rec[18:])
		group = append(group, redoPage{id: id, image: img})
		if idx == cnt-1 {
			flushGroup()
		}
	}
	rep.DroppedTail += len(group)

	// Redo in log order: later images of the same page overwrite earlier
	// ones, converging on the newest acknowledged state.
	for _, p := range redo {
		if !storage.VerifyPage(p.image) {
			return nil, nil, fmt.Errorf("core: recover: journaled image for page %d fails checksum", p.id)
		}
		if err := io.write(p.id, p.image); err != nil {
			return nil, nil, err
		}
		rep.PagesRedone++
	}

	// Re-establish the superblock. If page 0 was torn, the journal must
	// have supplied a replacement image (the meta page is journaled
	// whenever the root moves).
	if metaErr != nil {
		if journaledMeta == nil {
			return nil, nil, fmt.Errorf("core: recover: unreadable meta and no journaled replacement: %w", metaErr)
		}
		meta, err = storage.DecodeMeta(journaledMeta)
		if err != nil {
			return nil, nil, fmt.Errorf("core: recover: journaled meta image invalid: %w", err)
		}
		rep.MetaRepaired = true
	} else if rep.PagesRedone > 0 {
		if rebuilt, err2 := storage.DecodeMeta(journaledMetaOr(metaBuf, journaledMeta)); err2 == nil {
			meta = rebuilt
		}
	}
	if meta.WALStart == 0 || meta.WALBlocks == 0 {
		meta.WALStart, meta.WALBlocks = walStart, walBlocks
	}

	// Verification walk: every reachable page must read and decode (the
	// checksum rejects torn pages), recounting keys and the allocation
	// watermark. The walk is breadth-first per level using sibling links
	// on leaves and child fan-out on inner nodes.
	var keys uint64
	maxID := meta.Root
	level := []storage.PageID{meta.Root}
	buf := make([]byte, storage.PageSize)
	seen := 0
	for len(level) > 0 {
		var next []storage.PageID
		for _, id := range level {
			seen++
			if seen > int(dev.NumBlocks()) {
				return nil, nil, fmt.Errorf("core: recover: tree walk exceeds device size (cycle?)")
			}
			if err := io.read(uint64(id), 1, buf); err != nil {
				return nil, nil, err
			}
			n, err := storage.DecodeNode(id, buf)
			if err != nil {
				return nil, nil, fmt.Errorf("core: recover: page %d unreadable after replay: %w", id, err)
			}
			if id > maxID {
				maxID = id
			}
			if n.IsLeaf() {
				keys += uint64(len(n.Keys))
			} else {
				next = append(next, n.Children...)
			}
		}
		level = next
	}
	rep.KeysCounted = keys
	if meta.NumKeys != keys {
		meta.NumKeys = keys
		rep.MetaRepaired = true
	}
	if meta.Watermark < maxID+1 {
		meta.Watermark = maxID + 1
		rep.MetaRepaired = true
	}

	// Fence and persist: the new generation is strictly above anything in
	// the region, so a crash after this point can never replay the
	// records again; then physically empty the log.
	newGen := fenceGen
	if gen >= newGen {
		newGen = gen
	}
	newGen++
	if newGen < 1 {
		newGen = 1
	}
	meta.WALGen = newGen
	if err := io.write(0, meta.Encode()); err != nil {
		return nil, nil, err
	}
	if err := io.flush(); err != nil {
		return nil, nil, err
	}
	if err := io.write(storage.PageID(meta.WALStart), make([]byte, storage.PageSize)); err != nil {
		return nil, nil, err
	}
	if err := io.flush(); err != nil {
		return nil, nil, err
	}
	return meta, rep, nil
}

// journaledMetaOr prefers the newest journaled page-0 image over the one
// read from the device: when replay rewrote page 0, the on-device bytes
// read earlier are stale.
func journaledMetaOr(onDevice, journaled []byte) []byte {
	if journaled != nil {
		return journaled
	}
	return onDevice
}
