package main

import (
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Latency classes the end-to-end metrics report.
const (
	kindGet = iota
	kindWrite
	kindScan
	numKinds
)

var kindNames = [numKinds]string{"get", "write", "scan"}

// window is the length of the slices a measured phase is cut into; each
// end-to-end figure is taken over its windows (see runRounds).
const window = time.Second

// series holds latency samples (ns) bucketed by the window, counted from
// the phase start, in which each operation completed.
type series struct {
	start time.Time
	w     [][]int64
}

func (s *series) add(end time.Time, d time.Duration) {
	i := max(int(end.Sub(s.start)/window), 0)
	for len(s.w) <= i {
		s.w = append(s.w, nil)
	}
	s.w[i] = append(s.w[i], int64(d))
}

// merge folds o, which must share s's start, into s.
func (s *series) merge(o *series) {
	for i, w := range o.w {
		for len(s.w) <= i {
			s.w = append(s.w, nil)
		}
		s.w[i] = append(s.w[i], w...)
	}
}

func (s *series) all() []int64 {
	var out []int64
	for _, w := range s.w {
		out = append(out, w...)
	}
	return out
}

// windows returns, in microseconds, each of the first n windows'
// q-quantile, counting only windows with at least minSamples. With
// fewer than three such windows it returns the q-quantile of every
// sample instead, as the only value.
func (s *series) windows(q float64, n, minSamples int) []float64 {
	var per []float64
	for i := 0; i < n && i < len(s.w); i++ {
		if len(s.w[i]) >= minSamples {
			per = append(per, quantile(s.w[i], q)/1e3)
		}
	}
	if len(per) < 3 {
		return []float64{quantile(s.all(), q) / 1e3}
	}
	return per
}

// p50s and p99s are the per-window medians and 99th percentiles of the
// first n windows; a window's p99 needs 1000 samples so that ten lie
// beyond it.
func (s *series) p50s(n int) []float64 { return s.windows(0.50, n, 100) }
func (s *series) p99s(n int) []float64 { return s.windows(0.99, n, 1000) }

// meter samples the operations completed so far and the process CPU time
// at every window boundary of a phase, for per-window rates.
type meter struct {
	done  *atomic.Uint64
	ticks []tick
	stop  chan struct{}
	exit  chan struct{}
}

type tick struct {
	at   time.Time
	cpu  time.Duration
	done uint64
}

// startMeter samples done at start and at each of the next n window
// boundaries, or until stopped.
func startMeter(start time.Time, n int, done *atomic.Uint64) *meter {
	m := &meter{done: done, stop: make(chan struct{}), exit: make(chan struct{})}
	go func() {
		defer close(m.exit)
		for i := 0; i <= n; i++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(i) * window)))
			select {
			case <-t.C:
			case <-m.stop:
				t.Stop()
				return
			}
			m.ticks = append(m.ticks, tick{at: time.Now(), cpu: cpuTime(), done: m.done.Load()})
		}
	}()
	return m
}

// finish stops the meter and waits for it.
func (m *meter) finish() {
	close(m.stop)
	<-m.exit
}

// rates returns each window's completion rate (ops/s) and CPU time per
// completed operation (µs).
func (m *meter) rates() (throughput, cpuPerOp []float64) {
	for i := 1; i < len(m.ticks); i++ {
		a, b := m.ticks[i-1], m.ticks[i]
		ops := float64(b.done - a.done)
		throughput = append(throughput, ops/b.at.Sub(a.at).Seconds())
		cpuPerOp = append(cpuPerOp, per(us(b.cpu-a.cpu), ops))
	}
	return throughput, cpuPerOp
}

// quantile sorts xs in place and returns its q-quantile, interpolated
// between the two nearest ranks.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}

// quantileF returns the q-quantile of xs, interpolated between the two
// nearest ranks; xs is left unchanged.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

func median(xs []float64) float64 { return quantileF(xs, 0.5) }

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
