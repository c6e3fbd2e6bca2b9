package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/fault"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
	"github.com/patree/patree/internal/wal"
)

// holdDevice is a SimDevice that withholds the writes hold selects: a
// held write is accepted but never reaches the media and never
// completes, so a fault.Device above it keeps it in flight until Crash
// resolves it. Every other write lands (the simulated media applies it
// at submission) and its LBA is recorded in landed.
type holdDevice struct {
	*nvme.SimDevice
	hold   func(lba uint64) bool
	held   []*nvme.Command
	landed []uint64
}

func (d *holdDevice) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	qp, err := d.SimDevice.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	return &holdQP{QueuePair: qp, d: d}, nil
}

type holdQP struct {
	nvme.QueuePair
	d    *holdDevice
	held int
}

func (q *holdQP) Submit(cmd *nvme.Command) error {
	if cmd.Op == nvme.OpWrite && q.d.hold != nil && q.d.hold(cmd.LBA) {
		q.d.held = append(q.d.held, cmd)
		q.held++
		return nil
	}
	if err := q.QueuePair.Submit(cmd); err != nil {
		return err
	}
	if cmd.Op == nvme.OpWrite {
		q.d.landed = append(q.d.landed, cmd.LBA)
	}
	return nil
}

func (q *holdQP) Outstanding() int { return q.QueuePair.Outstanding() + q.held }

// TestFaultWALHoleCrash pins the journal writer's out-of-order
// completion rule across a crash. Concurrent inserts on distinct leaves
// keep several WAL block writes in flight; one early block's write is
// held in flight while the blocks after it land, and then the device
// crashes, resolving the held write (reverted or kept, by fault seed).
// Whatever the outcome:
//   - the durability watermark never crossed the hole, and no operation
//     whose redo group reaches past it was acknowledged;
//   - when the held block is reverted, recovery stops at the hole: it
//     scans exactly the frames before it, so the landed records after it
//     are not replayed and their keys are absent;
//   - every acknowledged write survives reopen.
func TestFaultWALHoleCrash(t *testing.T) {
	outcomes := map[string]int{}
	for seed := uint64(1); seed <= 6; seed++ {
		outcomes[runWALHoleCrash(t, seed)]++
	}
	if outcomes["reverted"] == 0 || outcomes["kept"] == 0 {
		t.Fatalf("crash outcomes %v: both a reverted and a kept hole must be exercised", outcomes)
	}
}

func runWALHoleCrash(t *testing.T, seed uint64) string {
	const blocks = 1 << 14
	const preload = 400
	cfg := Config{Persistence: StrongPersistence, BufferPages: 512, Journal: true}

	eng := sim.NewEngine()
	osched := simos.New(eng, simos.Config{})
	hd := &holdDevice{SimDevice: nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 11, NumBlocks: blocks})}
	fd := fault.New(hd, fault.Config{Seed: seed})
	meta, err := Format(fd)
	if err != nil {
		t.Fatal(err)
	}
	var tree *Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	if tree, err = New(fd, cfg, SimEnv{T: th}, meta); err != nil {
		t.Fatal(err)
	}
	val := func(k uint64) []byte { return []byte(fmt.Sprintf("v%d", k)) }

	acked := map[uint64]bool{}
	crashed := false
	// admit queues ops at the current instant; run also drives the
	// engine until they complete.
	pending := 0
	admit := func(ops []*Op) {
		pending += len(ops)
		for _, op := range ops {
			op.Done = func(o *Op) {
				pending--
				if o.Res.Err != nil {
					return
				}
				if crashed {
					t.Errorf("seed %d: key %d acknowledged after the crash", seed, o.key)
				}
				acked[o.key] = true
			}
		}
		eng.After(0, func() {
			for _, op := range ops {
				tree.Admit(op)
			}
		})
	}
	run := func(ops []*Op) {
		admit(ops)
		for pending > 0 && eng.Step() {
		}
	}
	for k := uint64(1); k <= preload; k++ {
		run([]*Op{NewInsert(k*10, val(k*10), nil)})
	}
	if len(acked) != preload {
		t.Fatalf("seed %d: preload acked %d of %d", seed, len(acked), preload)
	}

	// Hold the first write of the block after the log's current tail
	// block: the burst's first records straddle into it, and the blocks
	// after it are written while it stays in flight. Rewrites of the held
	// block must queue behind it, so exactly one write is ever held.
	walStart := meta.WALStart
	holdLBA := walStart + uint64(tree.wal.UsedBytes())/storage.PageSize + 1
	holeStart := int(holdLBA-walStart) * storage.PageSize
	hd.hold = func(lba uint64) bool { return lba == holdLBA }
	landedBefore := len(hd.landed)

	// Sixteen inserts spread over the key space land on distinct leaves,
	// so their redo groups append back to back instead of queueing on
	// one leaf latch.
	var burst []*Op
	for i := uint64(0); i < 16; i++ {
		k := 250*i + 5
		burst = append(burst, NewInsert(k, val(k), nil))
	}
	admit(burst)
	eng.RunFor(20 * time.Millisecond) // the ops behind the hole never finish

	if len(hd.held) != 1 {
		t.Fatalf("seed %d: %d writes of the held block %d submitted, want 1 (same-block order broken)", seed, len(hd.held), holdLBA)
	}
	past := false
	for _, lba := range hd.landed[landedBefore:] {
		if lba >= holdLBA+2 && lba < walStart+meta.WALBlocks {
			past = true
		}
	}
	if !past {
		t.Fatalf("seed %d: no WAL block past the hole landed while it was in flight", seed)
	}
	if tree.jDurable > holeStart {
		t.Fatalf("seed %d: durability watermark %d crossed the hole at byte %d", seed, tree.jDurable, holeStart)
	}
	unacked := 0
	for _, op := range burst {
		if !acked[op.key] {
			unacked++
			continue
		}
		if op.jNeed > tree.jDurable {
			t.Fatalf("seed %d: key %d acknowledged with group end %d past the watermark %d", seed, op.key, op.jNeed, tree.jDurable)
		}
	}
	if unacked == 0 {
		t.Fatalf("seed %d: every burst insert was acknowledged across the hole", seed)
	}

	crashed = true
	if err := fd.Crash(); err != nil {
		t.Fatal(err)
	}
	img, err := fd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	outcome := "kept"
	if fd.Counts().CrashReverted == 1 {
		outcome = "reverted"
	}
	tree.Stop()
	eng.RunFor(time.Second)

	r2, rep := crashReopen(t, img, cfg, blocks)
	frame := journalRecordBytes + wal.FrameOverhead
	if outcome == "reverted" {
		if want := holeStart / frame; rep.Records != want {
			t.Fatalf("seed %d: recovery scanned %d records, want the %d that end before the hole", seed, rep.Records, want)
		}
		for _, op := range burst {
			if op.jNeed > holeStart {
				if res := r2.search(op.key); res.Found {
					t.Fatalf("seed %d: key %d, journaled past the hole, was recovered", seed, op.key)
				}
			}
		}
	}
	for k := range acked {
		res := r2.search(k)
		if res.Err != nil || !res.Found || string(res.Value) != string(val(k)) {
			t.Fatalf("seed %d (%s): acknowledged key %d lost: found=%v err=%v", seed, outcome, k, res.Found, res.Err)
		}
	}
	return outcome
}
