package fault

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// The stress harness runs a seed-reproducible randomized op stream
// against a journaled tree over a fault-injecting device, crashes the
// device at a random point in each of several phases, recovers the
// surviving image, and checks it against an in-memory oracle:
//
//   - every acknowledged write must survive the crash;
//   - an unacknowledged write may surface fully or not at all, never
//     half-visible (its key maps to the old value, the new value, or is
//     absent for a delete — anything else fails the run);
//   - with faults disabled and a clean shutdown, the image must equal
//     the oracle exactly.
//
// The read-ahead variant runs the same stream over a 16-page buffer with
// scan read-ahead on, turning a tenth of the ops into range scans. Each
// scan must resolve — no op may stay parked on a read-ahead read when
// the tree fails — and return ascending keys inside its range, each in
// a state the oracle allows for the scan's lifetime (see checkScan).
//
// Every failure message carries the seed, which reproduces the entire
// run bit-for-bit.

// ambState is one acceptable post-crash state for a key whose operation
// completed with an error (its effect is ambiguous).
type ambState struct {
	present bool
	val     []byte
}

const (
	stressDevBlocks = 1 << 14
	stressPhases    = 6 // crash in the first 5, clean close in the last
	stressOpsPhase  = 150
	stressKeySpace  = 512
	stressWindow    = 16
)

func stressProbs() Probs {
	return Probs{ReadErr: 0.02, WriteErr: 0.02, Timeout: 0.01, BitRot: 0.01, TornWrite: 0.02, LatencySpike: 0.05}
}

// stressWrite is the intended effect of one write on its key.
type stressWrite struct {
	key   uint64
	state ambState
}

// readAheadTotals sums a run's scans and read-ahead activity.
type readAheadTotals struct {
	scans, issued, hits uint64
}

// runStress executes one full multi-phase run and returns a determinism
// digest: a text transcript of everything observable (fault counts,
// recovery reports, stats, image checksums). Two runs with the same
// seed must produce identical digests. readAhead selects the read-ahead
// variant.
func runStress(t *testing.T, seed uint64, readAhead bool) (string, readAheadTotals) {
	t.Helper()
	rng := sim.NewRNG(seed ^ 0x57e55eed)
	persistence := core.WeakPersistence
	if seed%2 == 1 {
		persistence = core.StrongPersistence
	}
	model := map[uint64][]byte{}   // acked state
	amb := map[uint64][]ambState{} // additional acceptable states per key
	var img map[uint64][]byte
	var digest strings.Builder
	var totals readAheadTotals
	fmt.Fprintf(&digest, "seed=%d persistence=%s\n", seed, persistence)
	bufferPages := 96
	if readAhead {
		bufferPages = 16
		fmt.Fprintf(&digest, "read-ahead\n")
	}

	for phase := 0; phase < stressPhases; phase++ {
		crashPhase := phase < stressPhases-1
		eng := sim.NewEngine()
		sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed + uint64(phase)*977, NumBlocks: stressDevBlocks})
		var meta *storage.Meta
		var err error
		if img == nil {
			if meta, err = core.Format(sd); err != nil {
				t.Fatalf("seed %d phase %d: format: %v", seed, phase, err)
			}
		} else {
			sd.LoadImage(img)
			var rep *core.RecoverReport
			meta, rep, err = core.Recover(sd)
			if err != nil {
				t.Fatalf("seed %d phase %d: recover: %v", seed, phase, err)
			}
			fmt.Fprintf(&digest, "phase=%d recover gen=%d recs=%d groups=%d dropped=%d stale=%d redone=%d keys=%d repaired=%v\n",
				phase, rep.Generation, rep.Records, rep.Groups, rep.DroppedTail, rep.StaleSkipped, rep.PagesRedone, rep.KeysCounted, rep.MetaRepaired)
			t.Logf("phase %d reopen: %+v", phase, *rep)
			pairs := collectPairs(t, seed, phase, sd, meta)
			verifyOracle(t, seed, phase, pairs, model, amb)
			// Ambiguity resolved: adopt what actually survived.
			model = pairs
			amb = map[uint64][]ambState{}
			fmt.Fprintf(&digest, "phase=%d image crc=%08x keys=%d\n", phase, pairsCRC(pairs), len(pairs))
		}

		fcfg := Config{Seed: seed*1000003 + uint64(phase), Now: eng.Now}
		if crashPhase {
			fcfg.Probs = stressProbs()
		}
		fdev := New(sd, fcfg)

		osched := simos.New(eng, simos.Config{})
		var tree *core.Tree
		th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
		tree, err = core.New(fdev, core.Config{
			Persistence:   persistence,
			BufferPages:   bufferPages,
			Journal:       true,
			MaxIORetries:  8,
			ScanReadAhead: readAhead,
		}, core.SimEnv{T: th}, meta)
		if err != nil {
			t.Fatalf("seed %d phase %d: new tree: %v", seed, phase, err)
		}

		pending := map[uint64]bool{}
		// intents holds the effect of every write on a pending key;
		// written logs every write made this phase, in order. A scan may
		// observe any of them on the keys it covers (checkStressScan).
		intents := map[uint64]ambState{}
		var written []stressWrite
		scansPending := 0
		admitted, resolved, acked, failed := 0, 0, 0, 0
		crashAt := -1
		if crashPhase {
			crashAt = 30 + rng.Intn(90)
		}
		crashCalled := false
		opCounter := 0

		makeOp := func() *core.Op {
			kind := rng.Intn(100)
			if readAhead && kind >= 90 {
				opCounter++
				scansPending++
				totals.scans++
				lo := 1 + rng.Uint64n(stressKeySpace)
				hi := lo + 16 + rng.Uint64n(112)
				limit := 0
				if rng.Intn(4) == 0 {
					limit = 8 + rng.Intn(24)
				}
				// The states a key may be seen in: before the scan, any write
				// in flight or made while it runs, and the oracle at its end.
				before := map[uint64][]byte{}
				inflight := map[uint64]ambState{}
				for k := lo; k <= hi; k++ {
					if v, ok := model[k]; ok {
						before[k] = v
					}
					if a, ok := intents[k]; ok {
						inflight[k] = a
					}
				}
				from := len(written)
				label := fmt.Sprintf("seed %d phase %d: scan [%d,%d] limit %d", seed, phase, lo, hi, limit)
				var op *core.Op
				op = core.NewRange(lo, hi, limit, func(*core.Op) {
					resolved++
					scansPending--
					if op.Res.Err != nil {
						failed++
						return
					}
					acked++
					checkStressScan(t, label, lo, hi, limit, op.Res.Pairs, func(k uint64, present bool, got []byte) bool {
						is := func(a ambState) bool { return a.present == present && (!present || bytes.Equal(a.val, got)) }
						b, ok := before[k]
						m, mok := model[k]
						if is(ambState{ok, b}) || is(ambState{mok, m}) {
							return true
						}
						if a, ok := inflight[k]; ok && is(a) {
							return true
						}
						for _, w := range written[from:] {
							if w.key == k && is(w.state) {
								return true
							}
						}
						for _, a := range amb[k] {
							if is(a) {
								return true
							}
						}
						return false
					})
				})
				return op
			}
			key := 1 + rng.Uint64n(stressKeySpace)
			for pending[key] {
				key = 1 + rng.Uint64n(stressKeySpace)
			}
			pending[key] = true
			opCounter++
			switch {
			case kind < 55:
				val := []byte(fmt.Sprintf("s%d.p%d.o%d", seed, phase, opCounter))
				intents[key] = ambState{present: true, val: val}
				written = append(written, stressWrite{key, intents[key]})
				var op *core.Op
				op = core.NewInsert(key, val, func(*core.Op) {
					resolved++
					delete(pending, key)
					delete(intents, key)
					if op.Res.Err == nil {
						acked++
						model[key] = val
					} else {
						failed++
						amb[key] = append(amb[key], ambState{present: true, val: val})
					}
				})
				return op
			case kind < 75:
				intents[key] = ambState{present: false}
				written = append(written, stressWrite{key, intents[key]})
				var op *core.Op
				op = core.NewDelete(key, func(*core.Op) {
					resolved++
					delete(pending, key)
					delete(intents, key)
					if op.Res.Err == nil {
						acked++
						delete(model, key)
					} else {
						failed++
						amb[key] = append(amb[key], ambState{present: false})
					}
				})
				return op
			default:
				var op *core.Op
				op = core.NewSearch(key, func(*core.Op) {
					resolved++
					delete(pending, key)
					if op.Res.Err != nil {
						failed++
						return
					}
					acked++
					want, ok := model[key]
					if op.Res.Found != ok {
						t.Errorf("seed %d phase %d: search %d found=%v, oracle=%v", seed, phase, key, op.Res.Found, ok)
					} else if ok && !bytes.Equal(op.Res.Value, want) {
						t.Errorf("seed %d phase %d: search %d = %q, oracle %q", seed, phase, key, op.Res.Value, want)
					}
				})
				return op
			}
		}

		for {
			if !crashCalled && admitted < stressOpsPhase && len(pending)+scansPending < stressWindow {
				n := stressWindow - len(pending) - scansPending
				if n > stressOpsPhase-admitted {
					n = stressOpsPhase - admitted
				}
				batch := make([]*core.Op, 0, n)
				for i := 0; i < n; i++ {
					batch = append(batch, makeOp())
				}
				admitted += len(batch)
				eng.After(0, func() {
					for _, op := range batch {
						tree.Admit(op)
					}
				})
			}
			if crashPhase && !crashCalled && resolved >= crashAt {
				crashCalled = true
				eng.After(0, func() {
					if err := fdev.Crash(); err != nil {
						t.Errorf("seed %d phase %d: crash: %v", seed, phase, err)
					}
				})
			}
			if resolved == admitted && (crashCalled || admitted == stressOpsPhase) {
				break
			}
			if !eng.Step() {
				t.Fatalf("seed %d phase %d: simulation wedged with %d/%d ops resolved",
					seed, phase, resolved, admitted)
			}
		}

		if !crashPhase {
			// Clean close: checkpoint, then stop.
			syncDone := false
			syncOp := core.NewSync(func(*core.Op) { syncDone = true })
			eng.After(0, func() { tree.Admit(syncOp) })
			for !syncDone && eng.Step() {
			}
			if !syncDone {
				t.Fatalf("seed %d phase %d: final sync wedged", seed, phase)
			}
			if syncOp.Res.Err != nil {
				t.Fatalf("seed %d phase %d: final sync: %v", seed, phase, syncOp.Res.Err)
			}
		}
		tree.Stop()
		eng.RunFor(time.Second)

		st := tree.StatsSnapshot()
		c := fdev.Counts()
		fmt.Fprintf(&digest, "phase=%d admitted=%d acked=%d failed=%d appends=%d ckpts=%d ioerrs=%d retries=%d faults=%+v\n",
			phase, admitted, acked, failed, st.JournalAppends, st.Checkpoints, st.IOErrors, st.IORetries, c)
		if readAhead {
			fmt.Fprintf(&digest, "phase=%d read-ahead issued=%d hits=%d cancelled=%d wasted=%d\n",
				phase, st.SpecIssued, st.SpecHits, st.SpecCancelled, st.SpecWasted)
			totals.issued += st.SpecIssued
			totals.hits += st.SpecHits
		}

		img, err = fdev.Snapshot()
		if err != nil {
			t.Fatalf("seed %d phase %d: snapshot: %v", seed, phase, err)
		}
	}

	// Final gate: recover the cleanly-closed image; it must match the
	// oracle exactly — no ambiguity is tolerated after a clean close.
	eng := sim.NewEngine()
	sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed ^ 0xf1a1, NumBlocks: stressDevBlocks})
	sd.LoadImage(img)
	meta, rep, err := core.Recover(sd)
	if err != nil {
		t.Fatalf("seed %d: final recover: %v", seed, err)
	}
	if rep.PagesRedone != 0 {
		t.Errorf("seed %d: clean close left %d pages to redo", seed, rep.PagesRedone)
	}
	pairs := collectPairs(t, seed, stressPhases, sd, meta)
	if len(pairs) != len(model) {
		t.Fatalf("seed %d: final image has %d keys, oracle %d", seed, len(pairs), len(model))
	}
	for k, v := range model {
		if got, ok := pairs[k]; !ok || !bytes.Equal(got, v) {
			t.Fatalf("seed %d: final image key %d = %q (present=%v), oracle %q", seed, k, got, ok, v)
		}
	}
	fmt.Fprintf(&digest, "final crc=%08x keys=%d\n", pairsCRC(pairs), len(pairs))
	return digest.String(), totals
}

// checkStressScan checks one scan's result: keys ascending, inside
// [lo, hi], at most limit of them, and every key of the range the scan
// covered in a state allowed reports acceptable — present with the
// returned value, or absent. A scan cut short by its limit covers the
// range up to its last returned key.
func checkStressScan(t *testing.T, label string, lo, hi uint64, limit int, pairs []core.KV, allowed func(key uint64, present bool, val []byte) bool) {
	t.Helper()
	if limit > 0 && len(pairs) > limit {
		t.Errorf("%s: returned %d pairs", label, len(pairs))
		return
	}
	end := hi
	if limit > 0 && len(pairs) == limit {
		end = pairs[limit-1].Key
	}
	i := 0
	for k := lo; k <= end; k++ {
		present := i < len(pairs) && pairs[i].Key == k
		var val []byte
		if present {
			val = pairs[i].Value
			i++
		}
		if !allowed(k, present, val) {
			t.Errorf("%s: key %d = %q (present=%v), not a state the oracle allows", label, k, val, present)
		}
	}
	if i != len(pairs) {
		t.Errorf("%s: pair %d (key %d) out of order or outside the range", label, i, pairs[i].Key)
	}
}

// collectPairs walks the on-device tree image (no buffers) and returns
// every key/value pair, failing the test on any unreadable page.
func collectPairs(t *testing.T, seed uint64, phase int, sd *nvme.SimDevice, meta *storage.Meta) map[uint64][]byte {
	t.Helper()
	read := func(id storage.PageID) *storage.Node {
		buf := make([]byte, storage.PageSize)
		sd.ReadAt(uint64(id), buf)
		n, err := storage.DecodeNode(id, buf)
		if err != nil {
			t.Fatalf("seed %d phase %d: page %d unreadable: %v", seed, phase, id, err)
		}
		return n
	}
	n := read(meta.Root)
	for !n.IsLeaf() {
		n = read(n.Children[0])
	}
	pairs := map[uint64][]byte{}
	for {
		for i, k := range n.Keys {
			v := make([]byte, len(n.Vals[i]))
			copy(v, n.Vals[i])
			pairs[k] = v
		}
		if n.Next == storage.NilPage {
			break
		}
		n = read(n.Next)
	}
	return pairs
}

// verifyOracle checks a recovered image against the acked model plus
// the per-key ambiguity sets left by failed operations.
func verifyOracle(t *testing.T, seed uint64, phase int, pairs, model map[uint64][]byte, amb map[uint64][]ambState) {
	t.Helper()
	matches := func(key uint64, got []byte, present bool) bool {
		// The acked state is always acceptable...
		want, acked := model[key]
		if present == acked && (!present || bytes.Equal(got, want)) {
			return true
		}
		// ...and so is the atomic effect of any failed op on the key.
		for _, a := range amb[key] {
			if present == a.present && (!present || bytes.Equal(got, a.val)) {
				return true
			}
		}
		return false
	}
	for k, v := range model {
		got, ok := pairs[k]
		if !matches(k, got, ok) {
			t.Fatalf("seed %d phase %d: acked key %d lost or mangled: image=%q(present=%v) oracle=%q amb=%d",
				seed, phase, k, got, ok, v, len(amb[k]))
		}
	}
	for k, got := range pairs {
		if _, ok := model[k]; ok {
			continue
		}
		if !matches(k, got, true) {
			t.Fatalf("seed %d phase %d: phantom key %d = %q surfaced (never acked, no failed op explains it)",
				seed, phase, k, got)
		}
	}
}

// pairsCRC hashes an image's pairs in sorted key order.
func pairsCRC(pairs map[uint64][]byte) uint32 {
	keys := make([]uint64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	h := crc32.NewIEEE()
	var kb [8]byte
	for _, k := range keys {
		for i := 0; i < 8; i++ {
			kb[i] = byte(k >> (8 * i))
		}
		h.Write(kb[:])
		h.Write(pairs[k])
	}
	return h.Sum32()
}

// TestFaultStressSeeds runs the oracle-checked crash harness across many
// distinct seeds (alternating weak/strong persistence by parity). Each
// run performs 5 random crash points plus a clean close. On failure,
// reproduce with the printed seed.
func TestFaultStressSeeds(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for s := 1; s <= seeds; s++ {
		seed := uint64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runStress(t, seed, false)
		})
	}
}

// TestFaultStressReadAhead is TestFaultStressSeeds for the read-ahead
// variant: range scans over a cold buffer with scan read-ahead on,
// through the same crashes and injected faults. The seeds must between
// them issue read-ahead reads and have scans wait on them, or the
// variant no longer exercises the feature.
func TestFaultStressReadAhead(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	var sum readAheadTotals
	for s := 1; s <= seeds; s++ {
		seed := uint64(s)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, got := runStress(t, seed, true)
			sum.scans += got.scans
			sum.issued += got.issued
			sum.hits += got.hits
		})
	}
	t.Logf("%d scans, %d read-ahead reads, %d hits", sum.scans, sum.issued, sum.hits)
	if sum.scans == 0 || sum.issued == 0 || sum.hits == 0 {
		t.Fatalf("read-ahead variant ran %d scans with %d read-ahead reads and %d hits; want all > 0", sum.scans, sum.issued, sum.hits)
	}
}

// TestStressDeterminism is the deflake guard: the same seed, run twice
// in-process, must produce a byte-identical digest of every observable
// (fault schedule, recovery reports, stats, image checksums). If this
// fails, the harness — or the tree — picked up a source of
// nondeterminism, and every other stress failure stops being
// reproducible.
func TestStressDeterminism(t *testing.T) {
	const seed = 9001
	for _, readAhead := range []bool{false, true} {
		d1, _ := runStress(t, seed, readAhead)
		d2, _ := runStress(t, seed, readAhead)
		if d1 != d2 {
			t.Fatalf("seed %d (read-ahead %v) diverged between two in-process runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, readAhead, d1, d2)
		}
	}
}
