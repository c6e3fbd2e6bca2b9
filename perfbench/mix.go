package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	patree "github.com/patree/patree"
)

// pointMix is the point-cold and served-open mix: Zipf-popular keys in
// [1, n], getPct% Get and the rest Put. Every key was preloaded with
// version 0; each Put writes the key's next version. A Get must return
// a well-formed value for its key whose version some Put (or the
// preload) wrote, which catches lost, torn and misdirected values
// without a copy of the data.
type pointMix struct {
	seed   uint64
	r      *rng
	z      *zipf
	getPct int
	// vers[k-1] is the highest version issued for key k, shared by every
	// load goroutine on the same store.
	vers []atomic.Uint64
}

func (m *pointMix) issue(s asyncStore, p *pend) (*patree.Handle, error) {
	p.key = m.z.next(m.r) + 1
	if m.r.intn(100) < m.getPct {
		p.op = opGet
		return s.GetAsync(p.key)
	}
	p.op = opPut
	p.ver = m.vers[p.key-1].Add(1)
	fillValue(p.buf[:], m.seed, p.key, p.ver)
	return s.PutAsync(p.key, p.buf[:])
}

func (m *pointMix) check(p *pend) error {
	if err := p.h.Err(); err != nil {
		return fmt.Errorf("%v %d: %w", kindNames[p.op.kind()], p.key, err)
	}
	if p.op != opGet {
		return nil
	}
	if !p.h.Found() {
		return fmt.Errorf("get %d: preloaded key missing", p.key)
	}
	ver, err := checkValue(p.h.Value(), m.seed, p.key)
	if err != nil {
		return fmt.Errorf("get %d: %w", p.key, err)
	}
	if ver > m.vers[p.key-1].Load() {
		return fmt.Errorf("get %d: version %d was never written", p.key, ver)
	}
	return nil
}

// Journal-churn mix shares.
const (
	churnGet    = 30
	churnPut    = 20
	churnDelete = 20
	churnUpdate = 20
	// The remaining 10% are scans of up to scanLimit keys.
	scanLimit = 16
)

// churnMix is one journal-churn goroutine's sliding window over its own
// key space [base, base+2^40): Put appends above the window, Delete
// trims its low end, and Get, Update and Scan draw uniformly from it.
// The key spaces of different goroutines are disjoint and the engine
// keeps each key's point operations in admission order, so the model
// updated at issue time gives every point operation's exact expected
// outcome.
type churnMix struct {
	seed   uint64
	r      *rng
	base   uint64
	target int      // window size the mix steers toward
	vers   []uint64 // vers[off]: current (or last, once deleted) version of base+off
	lo, hi uint64   // live window: offsets [lo, hi)
}

func newChurnMix(seed uint64, g, target int) *churnMix {
	m := &churnMix{
		seed:   seed,
		r:      newRNG(seed ^ uint64(g+1)*0x51ed2701f3a5c7b3),
		base:   uint64(g+1) << 40,
		target: target,
		hi:     uint64(target),
		vers:   make([]uint64, target),
	}
	for i := range m.vers {
		m.vers[i] = 1
	}
	return m
}

// preload puts the initial window through Batch commits, in key order.
func (m *churnMix) preload(db *patree.DB) error {
	slab := make([]byte, preloadChunk*valueSize)
	for lo := m.lo; lo < m.hi; lo += preloadChunk {
		b := db.NewBatch()
		for off := lo; off < lo+preloadChunk && off < m.hi; off++ {
			buf := slab[(off-lo)*valueSize : (off-lo+1)*valueSize]
			fillValue(buf, m.seed, m.base+off, m.vers[off])
			b.Put(m.base+off, buf)
		}
		if err := commit(b); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

func (m *churnMix) pick() uint64 { return m.lo + uint64(m.r.intn(int(m.hi-m.lo))) }

func (m *churnMix) issue(s asyncStore, p *pend) (*patree.Handle, error) {
	size := int(m.hi - m.lo)
	c := m.r.intn(100)
	switch {
	case c < churnGet:
		p.op = opGet
	case c < churnGet+churnPut:
		p.op = opPut
	case c < churnGet+churnPut+churnDelete:
		p.op = opDelete
	case c < churnGet+churnPut+churnDelete+churnUpdate:
		p.op = opUpdate
	default:
		p.op = opScan
	}
	// Keep the window between half and twice its target size.
	if p.op == opPut && size >= 2*m.target {
		p.op = opDelete
	} else if p.op == opDelete && size <= m.target/2 {
		p.op = opPut
	}
	switch p.op {
	case opGet:
		off := m.pick()
		p.key, p.ver, p.found = m.base+off, m.vers[off], true
		return s.GetAsync(p.key)
	case opPut:
		off := m.hi
		m.hi++
		m.vers = append(m.vers, 1)
		p.key, p.ver, p.found = m.base+off, 1, false
		fillValue(p.buf[:], m.seed, p.key, p.ver)
		return s.PutAsync(p.key, p.buf[:])
	case opDelete:
		off := m.lo
		m.lo++
		p.key, p.found = m.base+off, true
		return s.DeleteAsync(p.key)
	case opUpdate:
		off := m.pick()
		m.vers[off]++
		p.key, p.ver, p.found = m.base+off, m.vers[off], true
		fillValue(p.buf[:], m.seed, p.key, p.ver)
		return s.UpdateAsync(p.key, p.buf[:])
	default:
		p.key = m.base + m.pick()
		p.hi = p.key + 2*scanLimit - 1
		return s.ScanAsync(p.key, p.hi, scanLimit)
	}
}

func (m *churnMix) check(p *pend) error {
	if err := p.h.Err(); err != nil {
		return fmt.Errorf("%v %d: %w", kindNames[p.op.kind()], p.key, err)
	}
	if p.op == opScan {
		return m.checkScan(p.key, p.hi, p.h.Pairs())
	}
	if p.h.Found() != p.found {
		return fmt.Errorf("op %d on key %d: found=%v, want %v", p.op, p.key, p.h.Found(), p.found)
	}
	if p.op != opGet {
		return nil
	}
	ver, err := checkValue(p.h.Value(), m.seed, p.key)
	if err != nil {
		return fmt.Errorf("get %d: %w", p.key, err)
	}
	if ver != p.ver {
		return fmt.Errorf("get %d: version %d, want %d", p.key, ver, p.ver)
	}
	return nil
}

// checkScan checks what a scan can promise while point writes run
// concurrently with it (scans are not ordered against them): ascending
// keys inside the range and the limit, each with a value some writer
// produced for that key.
func (m *churnMix) checkScan(lo, hi uint64, pairs []patree.KV) error {
	if len(pairs) > scanLimit {
		return fmt.Errorf("scan [%d,%d]: %d pairs over limit %d", lo, hi, len(pairs), scanLimit)
	}
	prev := lo
	for i, kv := range pairs {
		if kv.Key < lo || kv.Key > hi || (i > 0 && kv.Key <= prev) {
			return fmt.Errorf("scan [%d,%d]: key %d out of order or range", lo, hi, kv.Key)
		}
		prev = kv.Key
		ver, err := checkValue(kv.Value, m.seed, kv.Key)
		if err != nil {
			return fmt.Errorf("scan [%d,%d]: key %d: %w", lo, hi, kv.Key, err)
		}
		off := kv.Key - m.base
		if off >= m.hi || ver == 0 || ver > m.vers[off] {
			return fmt.Errorf("scan [%d,%d]: key %d version %d was never written", lo, hi, kv.Key, ver)
		}
	}
	return nil
}

var errFinalScan = errors.New("final scan differs from the model")

// verifyAll compares a full scan of the store, key for key and value for
// value, with the union of the mixes' live windows (mixes in key order).
func verifyAll(pairs []patree.KV, mixes []*churnMix) error {
	i := 0
	for _, m := range mixes {
		for off := m.lo; off < m.hi; off++ {
			key := m.base + off
			if i >= len(pairs) {
				return fmt.Errorf("%w: key %d missing (scan returned %d pairs)", errFinalScan, key, len(pairs))
			}
			kv := pairs[i]
			if kv.Key != key {
				return fmt.Errorf("%w: pair %d has key %d, want %d", errFinalScan, i, kv.Key, key)
			}
			ver, err := checkValue(kv.Value, m.seed, key)
			if err != nil {
				return fmt.Errorf("%w: key %d: %v", errFinalScan, key, err)
			}
			if ver != m.vers[off] {
				return fmt.Errorf("%w: key %d has version %d, want %d", errFinalScan, key, ver, m.vers[off])
			}
			i++
		}
	}
	if i != len(pairs) {
		return fmt.Errorf("%w: %d extra pairs, first key %d", errFinalScan, len(pairs)-i, pairs[i].Key)
	}
	return nil
}
