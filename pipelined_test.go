package patree

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/patree/patree/internal/nvme"
)

// TestPipelinedPropertyOps runs the randomized oracle stream with scan
// read-ahead on over journaled 1 and 4 shards. The public surface must
// be indistinguishable from the classic path.
func TestPipelinedPropertyOps(t *testing.T) {
	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			db, err := Open(Options{
				DeviceBlocks: 1 << 16,
				Shards:       n,
				BufferPages:  16, // tiny: at 1 shard, scans miss their sibling leaves
				Journal:      true,
				Pipelined:    true,
			})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer db.Close()
			ops := 2000
			if testing.Short() {
				ops = 500
			}
			model := runShardedOps(t, db, n, int64(8800+n), ops)
			st := db.Stats()
			if st.NumKeys != uint64(len(model)) {
				t.Fatalf("shards=%d: Stats.NumKeys = %d, oracle %d", n, st.NumKeys, len(model))
			}
			// Every shard gets at least a 64-page buffer whatever
			// BufferPages says, so at 4 shards each tree fits its buffer
			// and there is nothing to read ahead; the 1-shard run must
			// both issue read-ahead reads and have scans wait on them.
			if n == 1 && (st.SpecIssued == 0 || st.SpecHits == 0) {
				t.Fatalf("shards=%d: read-ahead issued=%d hits=%d, want both > 0: %+v", n, st.SpecIssued, st.SpecHits, st)
			}
			if st.SpecHits+st.SpecCancelled+st.SpecWasted > st.SpecIssued {
				t.Fatalf("shards=%d: read-ahead accounting inconsistent: %+v", n, st)
			}
		})
	}
}

// TestPipelinedOptionsDefaults pins the opt-in surface: the zero
// Options keep every overlap feature off.
func TestPipelinedOptionsDefaults(t *testing.T) {
	db, err := Open(Options{DeviceBlocks: 1 << 14})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	for k := uint64(1); k <= 256; k++ {
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for k := uint64(1); k <= 256; k++ {
		if _, _, err := db.Get(k); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if st := db.Stats(); st.SpecIssued != 0 || st.SpecHits != 0 || st.SpecCancelled != 0 || st.SpecWasted != 0 {
		t.Fatalf("default options moved read-ahead counters: %+v", st)
	}
}

// FuzzPipelinedOps is FuzzShardedOps with scan read-ahead on: a byte
// stream becomes point ops and scans over a journaled, pipelined DB,
// checked against a flat map oracle, with a close/reopen cycle
// asserting that read-ahead and the pipelined journal writer never
// corrupt the persisted image. The high bit of the first byte selects
// the topology: 4 shards, whose 64-page per-shard buffer floor keeps
// fuzz-sized trees resident, or 1 shard with a 16-page buffer, where
// scans miss and read ahead. CI runs this for a bounded smoke window on
// every push.
func FuzzPipelinedOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{4, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0, 4, 0, 200, 3}, 30))
	f.Add(pipelinedReadAheadSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		runPipelinedOps(t, data)
	})
}

// pipelinedReadAheadSeed is a 1-shard FuzzPipelinedOps input that loads
// 300 distinct keys — far more than the 16-page buffer holds — and then
// scans wide ranges, so the run issues read-ahead reads.
func pipelinedReadAheadSeed() []byte {
	var data []byte
	for i := 0; i < 300; i++ {
		data = append(data, 0, byte(i%200), byte(i/200*29), byte(i))
	}
	for i := 0; i < 100; i++ {
		data = append(data, 5, byte(i*37), 0, 255)
	}
	data[0] = 0x84 // high bit: 1 shard; 0x84%6 == 0 keeps op 0 a put
	return data
}

// TestPipelinedFuzzSeedReadsAhead pins that the read-ahead seed of
// FuzzPipelinedOps still reaches the feature.
func TestPipelinedFuzzSeedReadsAhead(t *testing.T) {
	st := runPipelinedOps(t, pipelinedReadAheadSeed())
	if st.Shards != 1 || st.SpecIssued == 0 {
		t.Fatalf("read-ahead seed ran on %d shards with %d read-ahead reads; want 1 shard and > 0 reads", st.Shards, st.SpecIssued)
	}
}

// runPipelinedOps executes one FuzzPipelinedOps input and returns the
// DB's stats from before the close/reopen cycle.
func runPipelinedOps(t *testing.T, data []byte) Stats {
	const chunk = 4
	ops := len(data) / chunk
	if ops > 400 {
		ops = 400
	}
	shards, bufferPages := 4, 64
	if data[0]&0x80 != 0 {
		shards, bufferPages = 1, 16
	}
	dev := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 15})
	defer dev.Close()
	open := func() *DB {
		db, err := Open(Options{
			Device:      dev,
			Shards:      shards,
			BufferPages: bufferPages,
			Journal:     true,
			Pipelined:   true,
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()
	model := map[uint64][]byte{}
	for i := 0; i < ops; i++ {
		b := data[i*chunk : (i+1)*chunk]
		key := 1 + uint64(b[1])%200 + uint64(b[2])%50*7
		val := []byte{b[3], byte(key), byte(i)}
		switch b[0] % 6 {
		case 0, 1: // put
			if err := db.Put(key, val); err != nil {
				t.Fatalf("op %d: put %d: %v", i, key, err)
			}
			model[key] = append([]byte(nil), val...)
		case 2: // delete
			_, existed := model[key]
			found, err := db.Delete(key)
			if err != nil {
				t.Fatalf("op %d: delete %d: %v", i, key, err)
			}
			if found != existed {
				t.Fatalf("op %d: delete %d found=%v, model %v", i, key, found, existed)
			}
			delete(model, key)
		case 3: // get
			want, existed := model[key]
			v, found, err := db.Get(key)
			if err != nil {
				t.Fatalf("op %d: get %d: %v", i, key, err)
			}
			if found != existed || (existed && !bytes.Equal(v, want)) {
				t.Fatalf("op %d: get %d = %q/%v, model %q/%v", i, key, v, found, want, existed)
			}
		case 4: // update
			_, existed := model[key]
			found, err := db.Update(key, val)
			if err != nil {
				t.Fatalf("op %d: update %d: %v", i, key, err)
			}
			if found != existed {
				t.Fatalf("op %d: update %d found=%v, model %v", i, key, found, existed)
			}
			if existed {
				model[key] = append([]byte(nil), val...)
			}
		default: // scan
			lo := uint64(b[1])
			hi := lo + uint64(b[3])*3
			limit := int(b[2]) % 5 // 0 = all
			pairs, err := db.Scan(lo, hi, limit)
			if err != nil {
				t.Fatalf("op %d: scan [%d,%d] limit %d: %v", i, lo, hi, limit, err)
			}
			checkScan(t, fmt.Sprintf("op=%d scan[%d,%d]l%d", i, lo, hi, limit),
				pairs, oracleScan(model, lo, hi, limit))
		}
	}
	st := db.Stats()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db = open()
	defer db.Close()
	pairs, err := db.Scan(0, ^uint64(0), 0)
	if err != nil {
		t.Fatalf("final scan: %v", err)
	}
	checkScan(t, "after reopen", pairs, oracleScan(model, 0, ^uint64(0), 0))
	return st
}
