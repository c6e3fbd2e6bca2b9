package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/trace"
)

// pipelineTraceRun drives one traced, journaled shard through a fixed
// mix of inserts, searches and short range scans and returns the Chrome
// trace. pipelined toggles scan read-ahead, which by design DOES change
// the simulated I/O schedule; what must hold is that any given
// configuration is same-seed reproducible, and that the default (off)
// configuration is byte-identical to an explicitly-disabled one.
func pipelineTraceRun(t *testing.T, seed uint64, pipelined, explicitOff bool) []byte {
	t.Helper()
	eng := sim.NewEngine()
	sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed, NumBlocks: 1 << 13})
	osched := simos.New(eng, simos.Config{})
	meta, err := core.Format(sd)
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	tracer := core.NewTracer(1 << 15)
	cfg := core.Config{
		Persistence: core.StrongPersistence,
		BufferPages: 16, // tiny: scans miss their sibling leaves
		Journal:     true,
		Tracer:      tracer,
	}
	if pipelined {
		cfg.ScanReadAhead = true
	} else if explicitOff {
		cfg.ScanReadAhead = false
	}
	var tree *core.Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	tree, err = core.New(sd, cfg, core.SimEnv{T: th}, meta)
	if err != nil {
		t.Fatalf("new tree: %v", err)
	}

	// Load keySpace keys first, so the mixed phase runs against a tree
	// far larger than the buffer and its scans wait on sibling leaves.
	const keySpace, total = 512, 400
	resolved := 0
	run := func(phase string, n int, mk func(i int) *core.Op) {
		resolved = 0
		eng.After(0, func() {
			for i := 0; i < n; i++ {
				tree.Admit(mk(i))
			}
		})
		for resolved < n {
			if !eng.Step() {
				t.Fatalf("seed %d pipelined=%v: %s wedged at %d/%d", seed, pipelined, phase, resolved, n)
			}
		}
	}
	done := func(*core.Op) { resolved++ }
	run("load", keySpace, func(i int) *core.Op {
		return core.NewInsert(uint64(i+1), []byte(fmt.Sprintf("v%d", i+1)), done)
	})
	rng := sim.NewRNG(seed ^ 0x919e)
	run("mix", total, func(int) *core.Op {
		key := 1 + rng.Uint64n(keySpace)
		switch r := rng.Intn(100); {
		case r < 50:
			return core.NewInsert(key, []byte(fmt.Sprintf("v%d", key)), done)
		case r < 80:
			return core.NewSearch(key, done)
		default:
			return core.NewRange(key, key+48, 0, done)
		}
	})
	st := tree.StatsSnapshot()
	if pipelined && (st.SpecIssued == 0 || st.SpecHits == 0) {
		t.Fatalf("seed %d: pipelined run issued %d read-ahead reads with %d hits — the workload no longer exercises the feature", seed, st.SpecIssued, st.SpecHits)
	}
	if !pipelined && (st.SpecIssued != 0 || st.SpecHits != 0 || st.SpecCancelled != 0 || st.SpecWasted != 0) {
		t.Fatalf("seed %d: read-ahead counters moved with the feature off: %+v", seed, st)
	}
	tree.Stop()
	eng.RunFor(time.Second)

	events := tracer.Events()
	if len(events) == 0 {
		t.Fatalf("seed %d: no trace events", seed)
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeJSONProcs(&buf, []trace.Process{{Name: "patree", Events: events}}); err != nil {
		t.Fatalf("seed %d: write trace: %v", seed, err)
	}
	return buf.Bytes()
}

// TestPipelinedOffTraceDeterminism is the determinism regression for
// scan read-ahead: the option defaults to off, and a default-configured
// run must export a byte-identical trace to one where read-ahead is
// explicitly disabled — the gate must leave the classic reactive
// schedule untouched. If this breaks, every pinned simulated experiment
// is suspect.
func TestPipelinedOffTraceDeterminism(t *testing.T) {
	if (core.Config{}).ScanReadAhead {
		t.Fatal("ScanReadAhead must default to off")
	}
	d := (core.Config{}).WithDefaults()
	if d.ScanReadAhead {
		t.Fatal("WithDefaults must not switch ScanReadAhead on")
	}
	const seed = 42
	def := pipelineTraceRun(t, seed, false, false)
	off := pipelineTraceRun(t, seed, false, true)
	if !bytes.Equal(def, off) {
		t.Fatalf("seed %d: explicit-off config changed the simulated trace (%d vs %d bytes) — the pipelining gates leak into the classic path", seed, len(def), len(off))
	}
	def2 := pipelineTraceRun(t, seed, false, false)
	if !bytes.Equal(def, def2) {
		t.Fatalf("seed %d: same-seed default runs diverged (%d vs %d bytes)", seed, len(def), len(def2))
	}
}

// TestPipelinedOnTraceRepeatable pins that the pipelined configuration
// is itself deterministic: scan read-ahead reshapes the I/O schedule,
// but the same seed must reshape it identically every time — stress
// reproductions and the figpipeline experiment depend on it.
func TestPipelinedOnTraceRepeatable(t *testing.T) {
	const seed = 77
	on1 := pipelineTraceRun(t, seed, true, false)
	on2 := pipelineTraceRun(t, seed, true, false)
	if !bytes.Equal(on1, on2) {
		t.Fatalf("seed %d: same-seed pipelined runs diverged (%d vs %d bytes)", seed, len(on1), len(on2))
	}
	if off := pipelineTraceRun(t, seed, false, false); bytes.Equal(on1, off) {
		t.Fatalf("seed %d: read-ahead left the simulated trace unchanged — the workload no longer exercises it", seed)
	}
}
