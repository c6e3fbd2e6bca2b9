package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	patree "github.com/patree/patree"
)

// asyncStore is the part of patree.Store the loaders call. *patree.DB
// and client.Pool both satisfy it.
type asyncStore interface {
	GetAsync(key uint64) (*patree.Handle, error)
	PutAsync(key uint64, value []byte) (*patree.Handle, error)
	UpdateAsync(key uint64, value []byte) (*patree.Handle, error)
	DeleteAsync(key uint64) (*patree.Handle, error)
	ScanAsync(lo, hi uint64, limit int) (*patree.Handle, error)
}

type opcode uint8

const (
	opGet opcode = iota
	opPut
	opUpdate
	opDelete
	opScan
)

func (o opcode) kind() int {
	switch o {
	case opGet:
		return kindGet
	case opScan:
		return kindScan
	}
	return kindWrite
}

// pend is one operation in flight. Its value buffer stays untouched
// until the operation completes, so the engine may keep referring to it.
type pend struct {
	h       *patree.Handle
	op      opcode
	key, hi uint64
	ver     uint64
	found   bool // expected Found, where the mix knows it
	t0      time.Time
	issued  time.Time // open loop: when the arrival was actually issued
	admit   time.Time // traced runs: when the *Async call returned
	buf     [valueSize]byte
}

// mixer chooses operations and checks their results. One mixer belongs
// to one load goroutine.
type mixer interface {
	// issue chooses the next operation, fills p and admits it.
	issue(s asyncStore, p *pend) (*patree.Handle, error)
	// check verifies the completed operation's result.
	check(p *pend) error
}

// loopOut is what one load goroutine measured, or the merge of several.
type loopOut struct {
	lat        [numKinds]series
	fromIssue  series    // open loop: get latency from actual issue
	late       [][]int64 // open loop: issue time minus intended arrival, per issuer in issue order
	attempted  uint64
	completed  uint64
	failed     uint64
	inPhase    uint64 // open loop: completions inside the measured phase
	writeOps   uint64 // completed Put, Update and Delete
	userWrites uint64 // completed Put and Update: values written
	errs       []string
	spans      *spanLog
	// done counts completions for the phase's meter; shared by the
	// load goroutines.
	done *atomic.Uint64
	// A metered phase's completion rate (ops/s) and CPU time per
	// completed operation (µs), one value per window.
	rates, cpuPerOp []float64
}

func newLoopOut(start time.Time, sl *spanLog, done *atomic.Uint64) *loopOut {
	o := &loopOut{spans: sl, done: done}
	for i := range o.lat {
		o.lat[i].start = start
	}
	o.fromIssue.start = start
	return o
}

// fail counts a failed operation and keeps the first few reasons.
func (o *loopOut) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *loopOut) merge(p *loopOut) {
	for i := range o.lat {
		o.lat[i].merge(&p.lat[i])
	}
	o.fromIssue.merge(&p.fromIssue)
	o.late = append(o.late, p.late...)
	o.attempted += p.attempted
	o.completed += p.completed
	o.failed += p.failed
	o.inPhase += p.inPhase
	o.writeOps += p.writeOps
	o.userWrites += p.userWrites
	for _, e := range p.errs {
		if len(o.errs) < 5 {
			o.errs = append(o.errs, e)
		}
	}
	if o.spans != nil && p.spans != nil {
		o.spans.merge(p.spans)
	}
}

// complete checks a completed operation, counts it and releases its
// handle.
func (o *loopOut) complete(m mixer, p *pend) {
	if err := m.check(p); err != nil {
		o.fail(err)
	}
	p.h.Release()
	p.h = nil
	o.completed++
	o.done.Add(1)
	switch p.op {
	case opPut, opUpdate:
		o.userWrites++
		o.writeOps++
	case opDelete:
		o.writeOps++
	}
}

// finish completes a closed-loop operation and records its latency.
func (o *loopOut) finish(m mixer, p *pend, waitStart, end time.Time, seq uint64) {
	o.complete(m, p)
	o.lat[p.op.kind()].add(end, end.Sub(p.t0))
	if o.spans != nil {
		o.spans.op(seq, p.t0, p.admit, waitStart, end)
	}
}

// runClosed drives one goroutine's closed loop: depth operations stay in
// flight through the async API; each completion, observed oldest first,
// frees a slot for the next issue. It stops issuing at the deadline or
// after maxOps issues (0 = no limit) and drains what is in flight.
func runClosed(s asyncStore, m mixer, c closedCfg, out *loopOut) {
	depth, deadline, maxOps := c.depth, c.deadline, c.maxOps
	slots := make([]pend, depth)
	head, n := 0, 0
	var seq uint64
	for {
		stopped := (!deadline.IsZero() && !time.Now().Before(deadline)) || (maxOps > 0 && out.attempted >= maxOps)
		for !stopped && n < depth {
			p := &slots[(head+n)%depth]
			p.t0 = time.Now()
			h, err := m.issue(s, p)
			out.attempted++
			if out.spans != nil {
				p.admit = time.Now()
			}
			if err != nil {
				out.fail(fmt.Errorf("admit: %w", err))
			} else {
				p.h = h
				n++
			}
			stopped = maxOps > 0 && out.attempted >= maxOps
		}
		if n == 0 {
			return
		}
		p := &slots[head]
		var waitStart time.Time
		if out.spans != nil {
			waitStart = time.Now()
		}
		p.h.Wait()
		end := time.Now()
		seq++
		out.finish(m, p, waitStart, end, seq)
		head = (head + 1) % depth
		n--
	}
}

// closedCfg describes one closed-loop phase: each load goroutine keeps
// depth operations in flight from start until the deadline, or until it
// has issued maxOps (0 = no limit).
type closedCfg struct {
	depth           int
	start, deadline time.Time
	maxOps          uint64
	traced          bool
}

// runClosedAll runs one closed loop per mixer, each on its own goroutine.
// A timed phase is metered per window.
func runClosedAll(s asyncStore, mixers []mixer, c closedCfg) *loopOut {
	var done atomic.Uint64
	var met *meter
	if !c.deadline.IsZero() {
		met = startMeter(c.start, int(c.deadline.Sub(c.start)/window), &done)
	}
	outs := make([]*loopOut, len(mixers))
	var wg sync.WaitGroup
	for i, m := range mixers {
		var sl *spanLog
		if c.traced {
			sl = newSpanLog(c.start, i)
		}
		outs[i] = newLoopOut(c.start, sl, &done)
		wg.Add(1)
		go func(m mixer, out *loopOut) {
			defer wg.Done()
			runClosed(s, m, c, out)
		}(m, outs[i])
	}
	wg.Wait()
	total := mergeOuts(c.start, outs, c.traced)
	if met != nil {
		met.finish()
		total.rates, total.cpuPerOp = met.rates()
	}
	return total
}

func mergeOuts(start time.Time, outs []*loopOut, traced bool) *loopOut {
	var sl *spanLog
	if traced {
		sl = newSpanLog(start, -1)
	}
	total := newLoopOut(start, sl, nil)
	for _, o := range outs {
		total.merge(o)
	}
	return total
}

// openCfg describes one open-loop phase: clients independent Poisson
// arrival processes with rate ops/s in total, multiplexed over one
// issuer goroutine per mixer. Arrivals due before warm are not recorded.
type openCfg struct {
	rate      float64
	clients   int
	warm, dur time.Duration
	seed      uint64
}

// runOpen runs one open-loop phase. Every latency is measured from the
// arrival's intended time, so a stall is charged to each arrival that
// falls due during it, not only to the operation that was stuck.
func runOpen(s asyncStore, mixers []mixer, cfg openCfg, traced bool) *loopOut {
	start := time.Now()
	phase := start.Add(cfg.warm)
	deadline := phase.Add(cfg.dur)
	var done atomic.Uint64
	met := startMeter(phase, int(cfg.dur/window), &done)
	outs := make([]*loopOut, len(mixers))
	var wg sync.WaitGroup
	for i, m := range mixers {
		nc := cfg.clients / len(mixers)
		if i < cfg.clients%len(mixers) {
			nc++
		}
		var sl *spanLog
		if traced {
			sl = newSpanLog(phase, i)
		}
		r := newRNG(cfg.seed ^ uint64(i+1)*0x9e3779b97f4a7c15)
		outs[i] = newLoopOut(phase, sl, &done)
		wg.Add(1)
		go func(m mixer, out *loopOut) {
			defer wg.Done()
			issueOpen(s, m, r, nc, cfg, start, phase, deadline, out)
		}(m, outs[i])
	}
	wg.Wait()
	met.finish()
	total := mergeOuts(phase, outs, traced)
	total.rates, total.cpuPerOp = met.rates()
	return total
}

// issueOpen is one issuer: each round it issues an operation for every
// idle client whose arrival is due, then harvests them all. A client has
// at most one operation in flight; an arrival that falls due while its
// client is busy is issued as soon as the client frees up, and keeps its
// intended time.
func issueOpen(s asyncStore, m mixer, r *rng, nc int, cfg openCfg, start, phase, deadline time.Time, out *loopOut) {
	sl := out.spans
	var late []int64
	mean := time.Duration(float64(time.Second) * float64(cfg.clients) / cfg.rate)
	slots := make([]pend, nc)
	next := make([]time.Time, nc)
	for i := range next {
		next[i] = start.Add(time.Duration(r.float() * float64(mean)))
	}
	inflight := make([]int, 0, nc)
	var seq uint64
	finished := 0
	for finished < nc {
		now := time.Now()
		for i := range next {
			if next[i].IsZero() {
				continue
			}
			if next[i].After(deadline) {
				next[i] = time.Time{}
				finished++
				continue
			}
			if next[i].After(now) {
				continue
			}
			p := &slots[i]
			p.t0 = next[i]
			p.issued = time.Now()
			h, err := m.issue(s, p)
			if sl != nil {
				p.admit = time.Now()
			}
			out.attempted++
			if !p.t0.Before(phase) {
				late = append(late, int64(p.issued.Sub(p.t0)))
			}
			if err != nil {
				out.fail(fmt.Errorf("admit: %w", err))
				next[i] = next[i].Add(r.exp(mean))
				continue
			}
			p.h = h
			inflight = append(inflight, i)
			next[i] = time.Time{}
		}
		if len(inflight) > 0 {
			for _, i := range inflight {
				p := &slots[i]
				var waitStart time.Time
				if sl != nil {
					waitStart = time.Now()
				}
				p.h.Wait()
				end := time.Now()
				out.complete(m, p)
				if !p.t0.Before(phase) {
					out.lat[p.op.kind()].add(end, end.Sub(p.t0))
					if p.op == opGet {
						out.fromIssue.add(end, end.Sub(p.issued))
					}
					if !end.After(deadline) {
						out.inPhase++
					}
					if sl != nil {
						seq++
						sl.op(seq, p.issued, p.admit, waitStart, end)
					}
				}
				next[i] = p.t0.Add(r.exp(mean))
			}
			inflight = inflight[:0]
			continue
		}
		wake := time.Time{}
		for _, t := range next {
			if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		if d := time.Until(wake); !wake.IsZero() && d > 0 {
			time.Sleep(d)
		}
	}
	out.late = append(out.late, late)
}
