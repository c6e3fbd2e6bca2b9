package harness

import (
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/metrics"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/workload"
)

// This file is the figpipeline harness for the polled loop's scan
// sibling read-ahead (DESIGN.md §17). Each mix runs twice on the same
// seed — once with the classic strictly-reactive loop, once with
// read-ahead on — so every delta is the schedule change and nothing
// else. Both runs journal through the same pipelined WAL writer
// (DESIGN.md §11).

// PipelineMix is one committed figpipeline workload configuration.
type PipelineMix struct {
	Name string
	// UpdatePercent is the write share of the YCSB mix.
	UpdatePercent int
	// Journal turns on the redo journal, whose pipelined block writer
	// both runs of the mix share.
	Journal bool
	// BufferDiv sizes the page buffer as PreloadKeys/BufferDiv pages; a
	// large divisor leaves the tree cold so descents miss and scans wait
	// on device reads of their sibling leaves.
	BufferDiv int
	// Concurrency overrides the scale's closed-loop depth when > 0. Deep
	// closed loops hide read latency on their own (the worker always has
	// other ops to run during a wait), so the scan mix keeps few ops
	// outstanding — the regime where the worker otherwise idles on
	// serial leaf-chain demand reads.
	Concurrency int
	// ArrivalRate > 0 switches the mix to an open-loop Poisson driver at
	// that many ops/s. A closed loop re-paces itself around whatever the
	// worker costs, hiding latency effects in the throughput; an open
	// loop holds the offered load fixed, so any cost the pipelined loop
	// adds to point reads shows up where it belongs — in the latency.
	ArrivalRate float64
	// RangePercent adds YCSB-E style short scans (64 pairs) to the mix;
	// a scan crossing leaf boundaries is the serial-read chain the
	// sibling read-ahead collapses into one parallel batch.
	RangePercent int
}

// PipelineMixes are the mixes committed in BENCH_pipeline.json. The
// journal mix is write-heavy with a warm buffer: its throughput is set
// by the WAL writer, which is the same in both runs, so its classic
// series gates the writer itself and its pipelined series pins that
// read-ahead costs journaled writes nothing. The scan mix is cold and
// scan-heavy at a modest closed-loop depth: each scan crossing leaf
// boundaries waits out a serial chain of sibling reads that the
// read-ahead issues in parallel instead. The search mix is cold,
// point-read-heavy and open-loop at a fixed offered load: it has no
// scans, so its pipelined series must equal its classic series — the
// pin that Pipelined costs point reads nothing.
var PipelineMixes = []PipelineMix{
	{Name: "journal-write", UpdatePercent: 50, Journal: true, BufferDiv: 12},
	{Name: "scan-cold", UpdatePercent: 5, RangePercent: 60, BufferDiv: 50, Concurrency: 8},
	{Name: "search-cold", UpdatePercent: 5, Journal: false, BufferDiv: 50, ArrivalRate: 150_000},
}

// RunPipelineMix executes one mix. pipelined toggles scan read-ahead on
// the same seed and workload.
func RunPipelineMix(scale Scale, mix PipelineMix, pipelined bool) RunStats {
	if mix.Concurrency > 0 {
		scale.Concurrency = mix.Concurrency
	}
	cfg := paTreeConfig(scale.PreloadKeys/mix.BufferDiv, core.StrongPersistence)
	cfg.Journal = mix.Journal
	if pipelined {
		cfg.ScanReadAhead = true
	}
	gen := workload.NewYCSB(workload.YCSBConfig{
		Keys:          uint64(scale.PreloadKeys),
		UpdatePercent: mix.UpdatePercent,
		RangePercent:  mix.RangePercent,
		Theta:         0.3,
		Seed:          scale.Seed,
	})
	rs := RunPATree(PAConfig{
		Scale:       scale,
		Tree:        cfg,
		Gen:         gen,
		Device:      nvme.SimConfig{},
		ArrivalRate: mix.ArrivalRate,
	})
	label := "classic"
	if pipelined {
		label = "pipelined"
	}
	rs.Label = "PA-Tree " + mix.Name + " " + label
	return rs
}

// PipelineResult pairs one mix's classic and pipelined runs.
type PipelineResult struct {
	Mix PipelineMix
	Off RunStats
	On  RunStats
}

// PipelineSweep runs every committed mix off and on.
func PipelineSweep(scale Scale) []PipelineResult {
	out := make([]PipelineResult, 0, len(PipelineMixes))
	for _, mix := range PipelineMixes {
		out = append(out, PipelineResult{
			Mix: mix,
			Off: RunPipelineMix(scale, mix, false),
			On:  RunPipelineMix(scale, mix, true),
		})
	}
	return out
}

// FigPipeline regenerates the overlap figure: per-mix throughput and
// tail latency with read-ahead off and on.
func FigPipeline(scale Scale) Report {
	tb := metrics.NewTable("mix", "classic (Kops/s)", "pipelined (Kops/s)", "speedup",
		"classic p99 (us)", "pipelined p99 (us)")
	for _, r := range PipelineSweep(scale) {
		tb.AddRow(r.Mix.Name, r.Off.Throughput/1e3, r.On.Throughput/1e3,
			r.On.Throughput/r.Off.Throughput,
			float64(r.Off.P99Latency)/1e3, float64(r.On.P99Latency)/1e3)
	}
	return Report{ID: "figpipeline", Title: "Overlapped I/O and computation: classic vs pipelined polled loop", Table: tb,
		Notes: "sibling read-ahead collapses the cold scan mix's serial leaf chains into parallel batches (~1.8x); the open-loop search mix and the journaled write mix have no scans and run identically in both configurations (1.0x: both runs share the pipelined WAL writer); with read-ahead off the schedules are byte-identical to the classic loop"}
}
