package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
)

// TestNoSpaceConcurrentSplits fills a device too small for a journal
// region (its limit is the device end) with batches of concurrent
// random-key inserts, so several pessimistic splits compete for the
// last pages. Each insert must either succeed or fail with ErrNoSpace —
// the page reservations never let the allocator run past the device —
// and every acknowledged key stays readable.
func TestNoSpaceConcurrentSplits(t *testing.T) {
	const blocks = 400
	r := &rig{t: t}
	r.eng = sim.NewEngine()
	r.os = simos.New(r.eng, simos.Config{})
	r.dev = nvme.NewSimDevice(r.eng, nvme.SimConfig{Seed: 5, NumBlocks: blocks})
	meta, err := Format(r.dev)
	if err != nil {
		t.Fatal(err)
	}
	if meta.WALStart != 0 {
		t.Fatalf("a %d-block device got a journal region at %d", blocks, meta.WALStart)
	}
	r.attach(t, Config{Persistence: StrongPersistence, BufferPages: 64}, meta)

	rng := sim.NewRNG(9)
	acked := map[uint64]string{}
	refused := 0
	for batch := 0; batch < 200 && refused < 32; batch++ {
		ops := make([]*Op, 32)
		for i := range ops {
			k := rng.Uint64()
			ops[i] = NewInsert(k, []byte(fmt.Sprintf("value-%060d", k%1e9)), nil)
		}
		r.doAll(ops)
		refused = 0
		for _, o := range ops {
			switch {
			case o.Res.Err == nil:
				acked[o.key] = string(o.value)
			case errors.Is(o.Res.Err, ErrNoSpace):
				refused++
			default:
				t.Fatalf("insert %d: %v", o.key, o.Res.Err)
			}
		}
	}
	if refused < 32 {
		t.Fatalf("device never filled: %d keys acked, last batch refused %d", len(acked), refused)
	}
	if w := r.tree.alloc.Watermark(); uint64(w) > blocks {
		t.Fatalf("allocator watermark %d past the device end %d", w, blocks)
	}
	for k, v := range acked {
		if res := r.search(k); res.Err != nil || string(res.Value) != v {
			t.Fatalf("key %d after fill: err=%v", k, res.Err)
		}
	}
}
