package main

import (
	"fmt"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/storage"
)

// deviceBlocks is the size of the in-memory device patree.Open creates
// when Options.Device is nil.
const deviceBlocks = 1 << 20

// engine is one opened DB. Its device is the RAM device Open would make
// by default, passed in through Options.Device so its superblocks can be
// read after Close; a traced engine wraps it in a countingDevice.
type engine struct {
	raw    *nvme.RAMDevice
	dev    *countingDevice // nil when untraced
	db     *patree.DB
	shards int
}

// openEngine opens a DB with opts, which must leave Device unset.
func openEngine(opts patree.Options, traced bool) (*engine, error) {
	e := &engine{raw: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: deviceBlocks}), shards: max(opts.Shards, 1)}
	opts.Device = e.raw
	if traced {
		e.dev = newCountingDevice(e.raw, time.Now())
		opts.Device = e.dev
	}
	db, err := patree.Open(opts)
	if err != nil {
		e.raw.Close()
		return nil, fmt.Errorf("open: %w", err)
	}
	e.db = db
	if traced {
		metas, err := e.metas()
		if err != nil {
			e.close()
			return nil, err
		}
		var wal []blockRange
		for i, m := range metas {
			if m.WALBlocks > 0 {
				base := uint64(i) * e.partBlocks()
				wal = append(wal, blockRange{base + m.WALStart, base + m.WALStart + m.WALBlocks})
			}
		}
		e.dev.wal.Store(&wal)
	}
	return e, nil
}

func (e *engine) partBlocks() uint64 { return deviceBlocks / uint64(e.shards) }

// metas reads every shard's superblock straight from the RAM device.
func (e *engine) metas() ([]*storage.Meta, error) {
	out := make([]*storage.Meta, e.shards)
	for i := range out {
		var dev nvme.Device = e.raw
		if e.shards > 1 {
			part, err := nvme.NewPartition(e.raw, uint64(i)*e.partBlocks(), e.partBlocks())
			if err != nil {
				return nil, err
			}
			dev = part
		}
		m, err := core.ReadMeta(dev)
		if err != nil {
			return nil, fmt.Errorf("shard %d superblock: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}

// close closes the DB and returns the number of tree pages the shards'
// superblocks record: pages below each allocator watermark, not counting
// the superblock itself or the journal region.
func (e *engine) close() (uint64, error) {
	defer e.raw.Close()
	if err := e.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	metas, err := e.metas()
	if err != nil {
		return 0, err
	}
	var pages uint64
	for _, m := range metas {
		end := uint64(m.Watermark)
		if m.WALBlocks > 0 && m.WALStart < end {
			end = m.WALStart
		}
		pages += end - 1
	}
	return pages, nil
}

// preloadChunk is the number of operations per preload Batch.
const preloadChunk = 256

// preload puts keys [first, first+n) with version-0 values through Batch
// commits of preloadChunk operations, in key order.
func preload(db *patree.DB, seed, first uint64, n int) error {
	// A staged value must stay unchanged until its batch completes.
	slab := make([]byte, preloadChunk*valueSize)
	for lo := 0; lo < n; lo += preloadChunk {
		b := db.NewBatch()
		for k := lo; k < lo+preloadChunk && k < n; k++ {
			key := first + uint64(k)
			buf := slab[(k-lo)*valueSize : (k-lo+1)*valueSize]
			fillValue(buf, seed, key, 0)
			b.Put(key, buf)
		}
		if err := commit(b); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// commit commits b, waits for it and releases it.
func commit(b *patree.Batch) error {
	defer b.Release()
	if err := b.Commit(); err != nil {
		return err
	}
	return b.Wait()
}
