package main

import (
	"testing"
	"time"

	patree "github.com/patree/patree"
)

// stallStore answers every Get after a short service time, except that
// nothing completes during a stall window: operations issued inside it
// complete when it ends.
type stallStore struct {
	service          time.Duration
	stallAt, stallTo time.Time
	value            []byte
}

func (s *stallStore) GetAsync(key uint64) (*patree.Handle, error) {
	h, resolve := patree.NewRemoteHandle()
	done := time.Now().Add(s.service)
	if done.After(s.stallAt) && done.Before(s.stallTo) {
		done = s.stallTo
	}
	time.AfterFunc(time.Until(done), func() { resolve(patree.Result{Found: true, Value: s.value}) })
	return h, nil
}

func (s *stallStore) PutAsync(uint64, []byte) (*patree.Handle, error)    { panic("unused") }
func (s *stallStore) UpdateAsync(uint64, []byte) (*patree.Handle, error) { panic("unused") }
func (s *stallStore) DeleteAsync(uint64) (*patree.Handle, error)         { panic("unused") }
func (s *stallStore) ScanAsync(uint64, uint64, int) (*patree.Handle, error) {
	panic("unused")
}

// getOnly issues Gets of key 1 and accepts any successful result.
type getOnly struct{}

func (getOnly) issue(s asyncStore, p *pend) (*patree.Handle, error) {
	p.op, p.key = opGet, 1
	return s.GetAsync(1)
}

func (getOnly) check(p *pend) error { return p.h.Err() }

// A stall must be charged to every arrival that falls due during it, not
// only to the one operation per client that was in flight: the open loop
// measures from the intended arrival, so it is safe from coordinated
// omission.
func TestOpenLoopChargesStallToEveryArrival(t *testing.T) {
	const (
		rate    = 4000.0
		clients = 16
	)
	stall := 300 * time.Millisecond
	start := time.Now()
	store := &stallStore{
		service: 100 * time.Microsecond,
		stallAt: start.Add(400 * time.Millisecond),
		stallTo: start.Add(400*time.Millisecond + stall),
	}
	loop := runOpen(store, []mixer{getOnly{}, getOnly{}}, openCfg{rate: rate, clients: clients, dur: 1500 * time.Millisecond, seed: 3}, false)
	if loop.failed != 0 {
		t.Fatalf("%d failed: %v", loop.failed, loop.errs)
	}
	lat := loop.lat[kindGet].all()
	if n := float64(len(lat)); n < 0.8*rate*1.5 {
		t.Fatalf("recorded %v arrivals, want about %v", n, rate*1.5)
	}
	// Arrivals due in the stall's first half each wait at least half the
	// stall. A load loop timing from issue would show at most one such wait
	// per client.
	var long int
	for _, d := range lat {
		if time.Duration(d) >= stall/2 {
			long++
		}
	}
	if want := int(0.8 * rate * stall.Seconds() / 2); long < want {
		t.Fatalf("%d samples waited >= %v, want >= %d (one per arrival due in the stall's first half)", long, stall/2, want)
	}
	// The generator falls behind during the stall, and says so.
	if late := time.Duration(genLateP99(loop) * 1e3); late < stall/2 {
		t.Fatalf("generator lateness p99 %v, want >= %v", late, stall/2)
	}
}
