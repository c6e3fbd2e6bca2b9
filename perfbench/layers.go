package main

import (
	"runtime"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/server"
	"github.com/patree/patree/internal/storage"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0, in
// BENCHMARK.json's order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "ops/s"},
	{"capacity_ops", "ops/s"},
	{"get_p50_us", "us"},
	{"write_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"space_amp", "ratio"},
}

// higherIsBetter marks the end-to-end metrics that improve upward.
var higherIsBetter = map[string]bool{"throughput_ops": true, "capacity_ops": true}

// coreOps are the engine's op kinds as Metrics().Stages names them.
var coreOps = []string{"search", "insert", "update", "delete", "range"}

// perLayer are the metrics every workload reports with --trace 1. They
// come from the traced run: the counters the program exports, the
// counting device wrapper and the bench-side spans.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.busy_retries_per_op", "ratio"},
		{"client.net_get_p50_us", "us"},
		{"server.wire_get_p50_us", "us"},
		{"server.wire_get_p99_us", "us"},
		{"server.burst_ops_p50", "count"},
		{"server.busy_rate", "ratio"},
		{"server.bytes_per_op", "bytes"},
		{"db.admit_p50_us", "us"},
		{"db.admit_p99_us", "us"},
		{"db.admit_waits_per_op", "ratio"},
	}
	for _, op := range coreOps {
		p := "core." + op + "."
		defs = append(defs,
			metricDef{p + "queue_wait_p50_us", "us"},
			metricDef{p + "queue_wait_p99_us", "us"},
			metricDef{p + "io_wait_p50_us", "us"},
			metricDef{p + "io_wait_p99_us", "us"},
			metricDef{p + "total_p50_us", "us"},
			metricDef{p + "total_p99_us", "us"},
			metricDef{p + "latch_wait_p99_us", "us"},
			metricDef{p + "latch_wait_frac", "ratio"},
		)
	}
	return append(defs,
		metricDef{"core.probes_per_op", "ratio"},
		metricDef{"sched.empty_probe_frac", "ratio"},
		metricDef{"sched.reaped_per_probe", "ratio"},
		metricDef{"sched.probe_err_p50_us", "us"},
		metricDef{"sched.probe_bias_us", "us"},
		metricDef{"buffer.hit_ratio", "ratio"},
		metricDef{"storage.height", "count"},
		metricDef{"storage.pages", "count"},
		metricDef{"wal.appends_per_write", "ratio"},
		metricDef{"wal.checkpoints", "count"},
		metricDef{"wal.write_bytes_per_user_byte", "ratio"},
		metricDef{"nvme.reads_per_op", "ratio"},
		metricDef{"nvme.writes_per_op", "ratio"},
		metricDef{"nvme.write_bytes_per_user_byte", "ratio"},
		metricDef{"nvme.read_p50_us", "us"},
		metricDef{"nvme.read_p99_us", "us"},
		metricDef{"nvme.write_p50_us", "us"},
		metricDef{"nvme.write_p99_us", "us"},
		metricDef{"nvme.depth_mean", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "bytes"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"loadgen.gen_late_p99_us", "us"},
		metricDef{"self.op_us_per_op", "us"},
		metricDef{"self.admit_us_per_op", "us"},
		metricDef{"self.wait_us_per_op", "us"},
		metricDef{"self.device_read_us_per_op", "us"},
		metricDef{"self.device_write_us_per_op", "us"},
		metricDef{"self.device_flush_us_per_op", "us"},
		metricDef{"overhead.throughput_frac", "ratio"},
		metricDef{"overhead.get_p50_us", "us"},
		metricDef{"overhead.write_p50_us", "us"},
		metricDef{"overhead.cpu_us_per_op", "us"},
	)
}()

// snapshot is the state read at one edge of a measured phase.
type snapshot struct {
	at    time.Time
	cpu   time.Duration
	stats patree.Stats
	dev   devCounts
	mem   runtime.MemStats
	pool  client.Stats
}

func takeSnapshot(e *engine, pool *client.Pool) snapshot {
	s := snapshot{stats: e.db.Stats()}
	if e.dev != nil {
		s.dev = e.dev.counts()
	}
	if pool != nil {
		s.pool = pool.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

// per divides, reporting 0 for an empty base.
func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerInputs gathers what the per-layer metrics are computed from.
type layerInputs struct {
	before, after snapshot
	metrics       patree.Metrics
	loop          *loopOut
	dev           *countingDevice
	devSpans      []devSpan
	srv           *server.Server // nil when not served
	pages         uint64
}

// layerMetrics computes every per-layer metric; metrics of a layer the
// workload does not exercise read 0.
func layerMetrics(in layerInputs) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	loop := in.loop
	ops := float64(loop.completed)
	st := in.after.stats
	userWritten := float64(loop.userWrites) * (keySize + valueSize)

	if in.srv != nil {
		out["client.busy_retries_per_op"] = per(float64(in.after.pool.BusyRetries-in.before.pool.BusyRetries), ops)
		sm := in.srv.Metrics()
		wire := sm.WireLatency["get"]
		out["server.wire_get_p50_us"] = us(wire.P50)
		out["server.wire_get_p99_us"] = us(wire.P99)
		out["client.net_get_p50_us"] = quantile(loop.fromIssue.all(), 0.50)/1e3 - us(wire.P50)
		out["server.burst_ops_p50"] = float64(sm.BurstSize.P50)
		out["server.busy_rate"] = sm.BusyRate
		out["server.bytes_per_op"] = per(float64(sm.BytesIn+sm.BytesOut), float64(sm.Ops+sm.BatchOps))
		out["loadgen.gen_late_p99_us"] = genLateP99(loop)
	}

	if sl := loop.spans; sl != nil {
		out["db.admit_p50_us"] = quantile(sl.admit, 0.50) / 1e3
		out["db.admit_p99_us"] = quantile(sl.admit, 0.99) / 1e3
		n := float64(sl.ops)
		out["self.op_us_per_op"] = per(float64(sl.opNs-sl.admitNs-sl.waitNs), n) / 1e3
		out["self.admit_us_per_op"] = per(float64(sl.admitNs), n) / 1e3
		out["self.wait_us_per_op"] = per(float64(sl.waitNs), n) / 1e3
	}
	out["db.admit_waits_per_op"] = per(float64(st.AdmitWaits-in.before.stats.AdmitWaits), ops)

	for _, s := range in.metrics.Stages {
		p := "core." + s.Op + "."
		switch s.Stage {
		case "queue-wait":
			out[p+"queue_wait_p50_us"] = us(s.P50)
			out[p+"queue_wait_p99_us"] = us(s.P99)
		case "io-wait":
			out[p+"io_wait_p50_us"] = us(s.P50)
			out[p+"io_wait_p99_us"] = us(s.P99)
		case "total":
			out[p+"total_p50_us"] = us(s.P50)
			out[p+"total_p99_us"] = us(s.P99)
		case "latch-wait":
			out[p+"latch_wait_p99_us"] = us(s.P99)
		}
	}
	for _, op := range coreOps {
		var latched, total uint64
		for _, s := range in.metrics.Stages {
			if s.Op != op {
				continue
			}
			switch s.Stage {
			case "latch-wait":
				latched = s.Count
			case "total":
				total = s.Count
			}
		}
		out["core."+op+".latch_wait_frac"] = per(float64(latched), float64(total))
	}
	out["core.probes_per_op"] = per(float64(st.Probes-in.before.stats.Probes), ops)
	out["sched.probe_err_p50_us"] = us(in.metrics.Probe.AbsErrP50)
	out["sched.probe_bias_us"] = us(in.metrics.Probe.Bias)
	out["buffer.hit_ratio"] = st.BufferHit
	out["storage.height"] = float64(st.Height)
	out["storage.pages"] = float64(in.pages)

	writes := float64(loop.writeOps)
	out["wal.appends_per_write"] = per(float64(st.JournalAppends-in.before.stats.JournalAppends), writes)
	out["wal.checkpoints"] = float64(st.Checkpoints - in.before.stats.Checkpoints)

	if in.dev != nil {
		d := in.after.dev.sub(in.before.dev)
		out["wal.write_bytes_per_user_byte"] = per(float64(d.walBlocks*storage.PageSize), userWritten)
		out["nvme.reads_per_op"] = per(float64(d.cmds[0]), ops)
		out["nvme.writes_per_op"] = per(float64(d.cmds[1]), ops)
		out["nvme.write_bytes_per_user_byte"] = per(float64(d.blocks[1]*storage.PageSize), userWritten)
		out["nvme.depth_mean"] = per(float64(d.depthSum), float64(d.cmds[0]+d.cmds[1]+d.cmds[2]))
		out["sched.empty_probe_frac"] = per(float64(d.emptyProbes), float64(d.probes))
		out["sched.reaped_per_probe"] = per(float64(d.reaped), float64(d.probes))
		var lat [3][]int64
		var busy [3]int64
		for _, s := range in.devSpans {
			lat[s.op] = append(lat[s.op], s.end-s.start)
			busy[s.op] += s.end - s.start
		}
		out["nvme.read_p50_us"] = quantile(lat[0], 0.50) / 1e3
		out["nvme.read_p99_us"] = quantile(lat[0], 0.99) / 1e3
		out["nvme.write_p50_us"] = quantile(lat[1], 0.50) / 1e3
		out["nvme.write_p99_us"] = quantile(lat[1], 0.99) / 1e3
		out["self.device_read_us_per_op"] = per(float64(busy[0]), ops) / 1e3
		out["self.device_write_us_per_op"] = per(float64(busy[1]), ops) / 1e3
		out["self.device_flush_us_per_op"] = per(float64(busy[2]), ops) / 1e3
	}

	b, a := &in.before.mem, &in.after.mem
	out["runtime.alloc_bytes_per_op"] = per(float64(a.TotalAlloc-b.TotalAlloc), ops)
	out["runtime.allocs_per_op"] = per(float64(a.Mallocs-b.Mallocs), ops)
	out["runtime.gc_pause_ms"] = float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6
	out["runtime.gc_cpu_frac"] = a.GCCPUFraction

	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			out[d.name] = 0
		}
	}
	return out
}
