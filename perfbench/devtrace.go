package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/patree/patree/internal/nvme"
)

// countingDevice wraps the nvme.Device handed to patree.Open through
// Options.Device and measures the device layer from outside the engine:
// commands, blocks, queue depth at submit, probe outcomes and, while
// recording is on, each command's submit-to-callback time. The callback
// fires when the polled worker reaps the completion, so the time spent
// waiting for a probe is included.
type countingDevice struct {
	nvme.Device
	origin time.Time

	// recording gates the per-command samples so set-up traffic stays out
	// of the measured phase's distributions.
	recording atomic.Bool
	// wal holds the journal regions' absolute block ranges, read from the
	// superblocks once the DB is open; writes landing there count as WAL
	// bytes.
	wal atomic.Pointer[[]blockRange]

	mu  sync.Mutex
	qps []*countingQP
}

func newCountingDevice(dev nvme.Device, origin time.Time) *countingDevice {
	return &countingDevice{Device: dev, origin: origin}
}

// AllocQueuePair implements nvme.Device.
func (d *countingDevice) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	inner, err := d.Device.AllocQueuePair(depth)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	q := &countingQP{inner: inner, dev: d, id: len(d.qps)}
	d.qps = append(d.qps, q)
	return q, nil
}

// blockRange is a half-open range of absolute block addresses.
type blockRange struct{ start, end uint64 }

func (d *countingDevice) inWAL(lba uint64) bool {
	if rs := d.wal.Load(); rs != nil {
		for _, r := range *rs {
			if lba >= r.start && lba < r.end {
				return true
			}
		}
	}
	return false
}

// devCounts is a snapshot of the device counters summed over queue pairs.
type devCounts struct {
	cmds        [3]uint64 // by nvme.Opcode: read, write, flush
	blocks      [3]uint64
	walBlocks   uint64 // written blocks inside a journal region
	depthSum    uint64 // commands outstanding at each submit, summed
	probes      uint64
	emptyProbes uint64
	reaped      uint64
}

func (c devCounts) sub(o devCounts) devCounts {
	for i := range c.cmds {
		c.cmds[i] -= o.cmds[i]
		c.blocks[i] -= o.blocks[i]
	}
	c.walBlocks -= o.walBlocks
	c.depthSum -= o.depthSum
	c.probes -= o.probes
	c.emptyProbes -= o.emptyProbes
	c.reaped -= o.reaped
	return c
}

func (d *countingDevice) counts() devCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	var c devCounts
	for _, q := range d.qps {
		for i := range c.cmds {
			c.cmds[i] += q.cmds[i].Load()
			c.blocks[i] += q.blocks[i].Load()
		}
		c.walBlocks += q.walBlocks.Load()
		c.depthSum += q.depthSum.Load()
		c.probes += q.probes.Load()
		c.emptyProbes += q.emptyProbes.Load()
		c.reaped += q.reaped.Load()
	}
	return c
}

// devSpan is one recorded command: opcode, queue pair and its
// submit-to-callback interval in ns since the run's origin.
type devSpan struct {
	op         nvme.Opcode
	qp         int
	start, end int64
}

// spans returns every recorded command span. Call it only after the
// engine has stopped: the slices belong to the polling threads.
func (d *countingDevice) spans() []devSpan {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []devSpan
	for _, q := range d.qps {
		out = append(out, q.spans...)
	}
	return out
}

// countingQP wraps one queue pair. Submit and Probe run on the queue
// pair's owning thread; the counters are atomic so the benchmark can
// snapshot them while the engine runs.
type countingQP struct {
	inner nvme.QueuePair
	dev   *countingDevice
	id    int

	cmds        [3]atomic.Uint64
	blocks      [3]atomic.Uint64
	walBlocks   atomic.Uint64
	depthSum    atomic.Uint64
	probes      atomic.Uint64
	emptyProbes atomic.Uint64
	reaped      atomic.Uint64

	spans []devSpan
}

// Submit implements nvme.QueuePair. The command goes down as a copy
// whose callback stamps the completion and then hands the caller's own
// command back to the caller's callback.
func (q *countingQP) Submit(cmd *nvme.Command) error {
	depth := q.inner.Outstanding()
	orig := cmd
	c := *cmd
	rec := q.dev.recording.Load()
	start := time.Now()
	c.Callback = func(comp nvme.Completion) {
		if rec {
			q.spans = append(q.spans, devSpan{
				op:    orig.Op,
				qp:    q.id,
				start: int64(start.Sub(q.dev.origin)),
				end:   int64(time.Since(q.dev.origin)),
			})
		}
		comp.Cmd = orig
		if orig.Callback != nil {
			orig.Callback(comp)
		}
	}
	if err := q.inner.Submit(&c); err != nil {
		return err
	}
	if op := int(cmd.Op); op < len(q.cmds) {
		q.cmds[op].Add(1)
		q.blocks[op].Add(uint64(cmd.Blocks))
	}
	if cmd.Op == nvme.OpWrite && q.dev.inWAL(cmd.LBA) {
		q.walBlocks.Add(uint64(cmd.Blocks))
	}
	q.depthSum.Add(uint64(depth))
	return nil
}

// Probe implements nvme.QueuePair.
func (q *countingQP) Probe(max int) int {
	n := q.inner.Probe(max)
	q.probes.Add(1)
	if n == 0 {
		q.emptyProbes.Add(1)
	}
	q.reaped.Add(uint64(n))
	return n
}

// Outstanding implements nvme.QueuePair.
func (q *countingQP) Outstanding() int { return q.inner.Outstanding() }

// Free implements nvme.QueuePair.
func (q *countingQP) Free() error { return q.inner.Free() }
