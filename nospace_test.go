package patree

import (
	"errors"
	"fmt"
	"testing"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
)

// TestNoSpace fills 2048-block shards (a 2048-block device, or four
// 2048-block partitions of one) with sequential 100-byte Puts until the
// page allocator runs out, journaled and not. The first write that would
// need a page past its shard's limit (the journal region Format lays out
// at block 1792) must fail with ErrNoSpace, and nothing else may break:
// every acknowledged key stays readable, existing keys can be rewritten
// in place and deleted, no superblock records a watermark past the
// limit, and a close/reopen (journal recovery included) serves exactly
// the acked state.
func TestNoSpace(t *testing.T) {
	for _, journal := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			journal, shards := journal, shards
			t.Run(fmt.Sprintf("journal=%v/shards=%d", journal, shards), func(t *testing.T) {
				t.Parallel()
				runNoSpace(t, journal, shards)
			})
		}
	}
}

func runNoSpace(t *testing.T, journal bool, shards int) {
	const per = 2048
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: per * uint64(shards)})
	defer dev.Close()
	opts := Options{Device: dev, Shards: shards, Journal: journal}
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	val := func(k uint64, gen byte) []byte {
		v := make([]byte, 100)
		for i := range v {
			v[i] = byte(k) + gen + byte(i)
		}
		return v
	}
	model := map[uint64][]byte{}
	// Every shard hits its limit long before this many keys fit; keep
	// going until a run of refusals shows all shards are full.
	refused, streak := 0, 0
	for k := uint64(1); k <= 40000 && streak < 64; k++ {
		err := db.Put(k, val(k, 0))
		switch {
		case err == nil:
			model[k] = val(k, 0)
			streak = 0
		case errors.Is(err, ErrNoSpace):
			refused++
			streak++
		default:
			t.Fatalf("put %d after %d acked: %v", k, len(model), err)
		}
	}
	if refused == 0 || streak < 64 {
		t.Fatalf("device never filled: %d acked, %d refused, final streak %d", len(model), refused, streak)
	}

	// Reads, in-place rewrites and deletes of existing keys keep working.
	deleted := 0
	for k, v := range model {
		got, ok, err := db.Get(k)
		if err != nil || !ok || string(got) != string(v) {
			t.Fatalf("get %d after fill: ok=%v err=%v", k, ok, err)
		}
		switch k % 3 {
		case 0:
			if ok, err := db.Update(k, val(k, 1)); err != nil || !ok {
				t.Fatalf("update %d after fill: ok=%v err=%v", k, ok, err)
			}
			model[k] = val(k, 1)
		case 1:
			if ok, err := db.Delete(k); err != nil || !ok {
				t.Fatalf("delete %d after fill: ok=%v err=%v", k, ok, err)
			}
			delete(model, k)
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatal("no deletes exercised")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < shards; i++ {
		part, err := nvme.NewPartition(dev, uint64(i)*per, per)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := core.ReadMeta(part)
		if err != nil {
			t.Fatalf("shard %d: read meta: %v", i, err)
		}
		if meta.WALStart == 0 || uint64(meta.Watermark) > meta.WALStart {
			t.Fatalf("shard %d: watermark %d, journal region at %d", i, meta.Watermark, meta.WALStart)
		}
	}

	db, err = Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if st := db.Stats(); st.NumKeys != uint64(len(model)) {
		t.Fatalf("reopened NumKeys = %d, model %d", st.NumKeys, len(model))
	}
	pairs, err := db.Scan(0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(pairs) != len(model) {
		t.Fatalf("reopened scan has %d pairs, model %d", len(pairs), len(model))
	}
	for _, p := range pairs {
		if want, ok := model[p.Key]; !ok || string(p.Value) != string(want) {
			t.Fatalf("reopened key %d: present=%v, value mismatch", p.Key, ok)
		}
	}
}
