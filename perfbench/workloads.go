package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/server"
	"github.com/patree/patree/internal/storage"
)

// Workload parameters. Every engine runs with default patree.Options
// apart from the shard count, persistence and journal each workload
// names; ConcurrentReads, Pipelined and AdmissionWeighting stay off.
const (
	loaders    = 2  // load goroutines (and TCP connections) per workload
	depth      = 32 // operations each closed-loop goroutine keeps in flight
	theta      = 0.99
	getPercent = 90 // point mixes: the rest are Puts

	pointKeys   = 50_000
	pointRounds = 3

	servedKeys    = 20_000
	servedShards  = 2
	servedClients = 64
	// servedRate is the fixed offered load, well below the knee.
	servedRate   = 25_000
	servedRounds = 4
	servedWarm   = time.Second
	// saturation is how long each served-open round runs the closed loop
	// over the wire that gives capacity_ops.
	saturation = 3 * time.Second
	// backlogGrowth is how much an open-loop phase's generator lateness
	// may grow from its first to its last quarter before the phase counts
	// as falling behind; minShare is the share of the offered rate its
	// completions must reach. Both leave room for a host hiccup of about
	// 100 ms, which is not a backlog.
	backlogGrowth = 50 * time.Millisecond
	minShare      = 0.95

	churnShards = 2
	churnWindow = 2048 // live keys per goroutine: 4096 in all
	// churnOps is the fixed operation count of one journal-churn round,
	// so counts and space compare across commits.
	churnOps       = 20_000
	minChurnRounds = 3
)

// mode is what one pass over a workload is for.
type mode int

const (
	// modeMeasure gives every end-to-end metric (--trace 0).
	modeMeasure mode = iota
	// modeBaseline is --trace 1's untraced pass: one round.
	modeBaseline
	// modeTraced is --trace 1's traced pass: one round.
	modeTraced
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed     uint64
	seconds  int
	traceDir string
	name     string
}

func (c runCfg) dur() time.Duration { return time.Duration(c.seconds) * time.Second }

// metricLine is a workload-specific number printed in the report but not
// part of the JSON result (it does not apply to every workload).
type metricLine struct {
	name, unit string
	value      float64
}

// round is one fresh engine, set up and measured once.
type round struct {
	e2e     map[string]float64   // one value per round: setup_s, space_amp
	windows map[string][]float64 // one value per window of the measured phase
	notes   []metricLine
	layer   map[string]float64 // traced rounds only
	loop    *loopOut
	errs    []error
}

// phase is one pass over a workload: the medians of its rounds.
type phase struct {
	loop  *loopOut // every round's operation counts and failures
	e2e   map[string]float64
	layer map[string]float64
	notes []metricLine
	// Checks outside the load loops: final scan, key count, open-loop
	// validity. Each failure counts as a failed operation.
	failed uint64
	errs   []string
}

func (p *phase) fail(err error) {
	p.failed++
	p.errs = append(p.errs, err.Error())
}

// runRounds runs a workload's rounds, each on a fresh engine with inputs
// from its own seed (round 0 uses the run's). The engine's adaptive
// polling can settle differently from one instance to the next, so a
// per-round figure is the median over the rounds. A per-window figure is
// taken over every round's windows, at the quartile on its better side:
// other tenants of a shared host only ever slow a window down, so that
// quartile follows the program and not the host's load. Outside
// modeMeasure one round runs; a timed workload repeats rounds until the
// run has lasted cfg.dur(), and at least n of them.
func runRounds(cfg runCfg, m mode, n int, timed bool, one func(seed uint64) (*round, error)) (*phase, error) {
	start := time.Now()
	p := &phase{loop: &loopOut{}, e2e: map[string]float64{}}
	vals := map[string][]float64{}
	windows := map[string][]float64{}
	var notes []metricLine
	noteVals := map[string][]float64{}
	count := 0
	for {
		seed := cfg.seed
		if count > 0 {
			seed = mix64(cfg.seed ^ uint64(count))
		}
		r, err := one(seed)
		if err != nil {
			return nil, err
		}
		count++
		p.loop.merge(r.loop)
		for _, err := range r.errs {
			p.fail(err)
		}
		for k, v := range r.e2e {
			vals[k] = append(vals[k], v)
		}
		for k, v := range r.windows {
			windows[k] = append(windows[k], v...)
		}
		for _, l := range r.notes {
			if noteVals[l.name] == nil {
				notes = append(notes, l)
			}
			noteVals[l.name] = append(noteVals[l.name], l.value)
		}
		p.layer = r.layer
		if m != modeMeasure || (count >= n && (!timed || time.Since(start) >= cfg.dur())) {
			break
		}
		runtime.GC()
	}
	for k, v := range vals {
		p.e2e[k] = median(v)
	}
	for k, v := range windows {
		q := 0.25
		if higherIsBetter[k] {
			q = 0.75
		}
		p.e2e[k] = quantileF(v, q)
	}
	p.notes = append(p.notes, metricLine{"rounds", "count", float64(count)})
	for _, l := range notes {
		l.value = median(noteVals[l.name])
		p.notes = append(p.notes, l)
	}
	return p, nil
}

// spaceAmp is device bytes in tree pages per live user byte.
func spaceAmp(pages uint64, liveKeys int) float64 {
	return per(float64(pages*storage.PageSize), float64(liveKeys*(keySize+valueSize)))
}

// latencyMetrics records the get and write latency percentiles over the
// phase's first n windows. The p99s, medians over the windows, go to the
// report only: on a shared two-vCPU host they move two- to three-fold
// with the CPU time the hypervisor steals, too far run to run to hold
// any bound.
func latencyMetrics(r *round, loop *loopOut, n int) {
	r.windows["get_p50_us"] = loop.lat[kindGet].p50s(n)
	r.windows["write_p50_us"] = loop.lat[kindWrite].p50s(n)
	r.notes = append(r.notes,
		metricLine{"get_p99_us", "us", median(loop.lat[kindGet].p99s(n))},
		metricLine{"write_p99_us", "us", median(loop.lat[kindWrite].p99s(n))},
	)
}

func newRound(setup time.Duration) *round {
	return &round{
		e2e:     map[string]float64{"setup_s": setup.Seconds()},
		windows: map[string][]float64{},
	}
}

// finishTrace stops device recording, closes the engine and computes the
// per-layer metrics; it writes the trace file when dir is set.
func finishTrace(cfg runCfg, e *engine, in layerInputs, phaseStart time.Time) (map[string]float64, uint64, error) {
	e.dev.recording.Store(false)
	in.metrics = e.db.Metrics()
	pages, err := e.close()
	if err != nil {
		return nil, 0, err
	}
	in.dev = e.dev
	in.devSpans = e.dev.spans()
	in.pages = pages
	if cfg.traceDir != "" && in.loop.spans != nil {
		path := fmt.Sprintf("%s/trace-%s-seed%d.json", cfg.traceDir, cfg.name, cfg.seed)
		if err := writeTrace(path, in.loop.spans.kept, in.devSpans, int64(phaseStart.Sub(e.dev.origin))); err != nil {
			return nil, 0, fmt.Errorf("write trace: %w", err)
		}
	}
	return layerMetrics(in), pages, nil
}

// closeRound closes a round's engine, traced or not, and records the
// space its tree uses.
func closeRound(cfg runCfg, r *round, e *engine, in layerInputs, phaseStart time.Time, liveKeys int) error {
	var pages uint64
	var err error
	if e.dev != nil {
		r.layer, pages, err = finishTrace(cfg, e, in, phaseStart)
	} else {
		pages, err = e.close()
	}
	r.e2e["space_amp"] = spaceAmp(pages, liveKeys)
	return err
}

// pointMixers returns the point mix for each load goroutine over keys
// [1, keys], all preloaded with version 0.
func pointMixers(seed uint64, keys int) []mixer {
	vers := make([]atomic.Uint64, keys)
	z := newZipf(uint64(keys), theta, seed)
	mixers := make([]mixer, loaders)
	for i := range mixers {
		mixers[i] = &pointMix{seed: seed, r: newRNG(seed ^ uint64(i+1)<<32), z: z, getPct: getPercent, vers: vers}
	}
	return mixers
}

// runPointCold: one shard, Strong persistence, no journal; 50 K keys
// preloaded in key order, then a closed loop of Zipf Gets and Puts.
func runPointCold(cfg runCfg, m mode) (*phase, error) {
	dur := cfg.dur() / pointRounds
	return runRounds(cfg, m, pointRounds, false, func(seed uint64) (*round, error) {
		t0 := time.Now()
		e, err := openEngine(patree.Options{Persistence: patree.Strong}, m == modeTraced)
		if err != nil {
			return nil, err
		}
		if err := preload(e.db, seed, 1, pointKeys); err != nil {
			e.close()
			return nil, err
		}
		r := newRound(time.Since(t0))

		before := takeSnapshot(e, nil)
		if e.dev != nil {
			e.dev.recording.Store(true)
		}
		r.loop = runClosedAll(e.db, pointMixers(seed, pointKeys), closedCfg{depth: depth, start: before.at, deadline: before.at.Add(dur), traced: e.dev != nil})
		after := takeSnapshot(e, nil)
		if n := after.stats.NumKeys; n != pointKeys {
			r.errs = append(r.errs, fmt.Errorf("engine holds %d keys, want %d", n, pointKeys))
		}
		r.windows["throughput_ops"] = r.loop.rates
		r.windows["capacity_ops"] = r.loop.rates
		r.windows["cpu_us_per_op"] = r.loop.cpuPerOp
		latencyMetrics(r, r.loop, int(dur/window))
		return r, closeRound(cfg, r, e, layerInputs{before: before, after: after, loop: r.loop}, before.at, pointKeys)
	})
}

// served is the served-open instance: a DB behind an in-process server
// on loopback TCP, and the client pool that drives it.
type served struct {
	e    *engine
	srv  *server.Server
	ln   net.Listener
	pool *client.Pool
	done chan error
}

func openServed(seed uint64, traced bool) (*served, error) {
	e, err := openEngine(patree.Options{Shards: servedShards}, traced)
	if err != nil {
		return nil, err
	}
	if err := preload(e.db, seed, 1, servedKeys); err != nil {
		e.close()
		return nil, err
	}
	s := &served{e: e, srv: server.New(e.db, server.Options{}), done: make(chan error, 1)}
	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	go func() { s.done <- s.srv.Serve(s.ln) }()
	s.pool, err = client.DialPool(s.ln.Addr().String(), loaders, client.Options{})
	if err != nil {
		s.shutdown()
		e.close()
		return nil, err
	}
	return s, nil
}

// shutdown stops the client, the server and its Serve goroutine, in that
// order, leaving the engine open.
func (s *served) shutdown() error {
	var errs []error
	if s.pool != nil {
		errs = append(errs, s.pool.Close())
	}
	errs = append(errs, s.srv.Close())
	if err := <-s.done; err != nil && !errors.Is(err, net.ErrClosed) {
		errs = append(errs, fmt.Errorf("serve: %w", err))
	}
	return errors.Join(errs...)
}

// openPhase runs one open-loop phase and checks it was valid: the
// completions inside the phase kept up with the offered rate and the
// generator's lateness did not grow.
func openPhase(pool *client.Pool, mixers []mixer, rate float64, warm, dur time.Duration, seed uint64, traced bool) (*loopOut, error) {
	loop := runOpen(pool, mixers, openCfg{rate: rate, clients: servedClients, warm: warm, dur: dur, seed: seed}, traced)
	achieved := float64(loop.inPhase) / dur.Seconds()
	if achieved < minShare*rate {
		return loop, fmt.Errorf("offered %.0f ops/s, achieved %.0f: past the knee", rate, achieved)
	}
	// Compare each issuer's lateness over its first and last quarter of
	// arrivals: a backlog that grows makes later arrivals ever later.
	for _, late := range loop.late {
		q := len(late) / 4
		if q == 0 {
			continue
		}
		if f, l := meanNs(late[:q]), meanNs(late[len(late)-q:]); l > f+float64(backlogGrowth) {
			return loop, fmt.Errorf("offered %.0f ops/s: generator lateness grew from %.0f to %.0f us", rate, f/1e3, l/1e3)
		}
	}
	return loop, nil
}

// genLateP99 is the generator's lateness p99 over every issuer, in µs.
func genLateP99(loop *loopOut) float64 {
	var all []int64
	for _, l := range loop.late {
		all = append(all, l...)
	}
	return quantile(all, 0.99) / 1e3
}

func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// runServedOpen: a 2-shard DB behind server.Server on loopback TCP,
// driven through client.Pool by 64 Poisson clients at a fixed rate. Each
// measured round then runs the same mix over the same two connections as
// a closed loop of 2 x 32 operations in flight, the most the 64 clients
// ever have outstanding: its completion rate is capacity_ops, the
// ceiling the open loop's latency turns up against.
func runServedOpen(cfg runCfg, m mode) (*phase, error) {
	dur := cfg.dur() / servedRounds
	return runRounds(cfg, m, servedRounds, false, func(seed uint64) (*round, error) {
		t0 := time.Now()
		s, err := openServed(seed, m == modeTraced)
		if err != nil {
			return nil, err
		}
		r := newRound(time.Since(t0))

		mixers := pointMixers(seed, servedKeys)
		before := takeSnapshot(s.e, s.pool)
		if s.e.dev != nil {
			s.e.dev.recording.Store(true)
		}
		loop, verr := openPhase(s.pool, mixers, servedRate, servedWarm, dur, seed, s.e.dev != nil)
		after := takeSnapshot(s.e, s.pool)
		r.loop = loop
		if verr != nil {
			r.errs = append(r.errs, verr)
		}
		r.windows["throughput_ops"] = loop.rates
		r.windows["cpu_us_per_op"] = loop.cpuPerOp
		latencyMetrics(r, loop, int(dur/window))
		r.notes = append(r.notes, metricLine{"gen_late_p99_us", "us", genLateP99(loop)})
		in := layerInputs{before: before, after: after, loop: loop, srv: s.srv}

		if m == modeMeasure {
			start := time.Now()
			sat := runClosedAll(s.pool, mixers, closedCfg{depth: servedClients / loaders, start: start, deadline: start.Add(saturation)})
			r.loop.merge(sat)
			r.windows["capacity_ops"] = sat.rates
			r.notes = append(r.notes, metricLine{"capacity_get_p50_us", "us", median(sat.lat[kindGet].p50s(int(saturation / window)))})
		}
		err = s.shutdown()
		return r, errors.Join(err, closeRound(cfg, r, s.e, in, before.at.Add(servedWarm), servedKeys))
	})
}

// runJournalChurn: two shards with the redo journal on; each goroutine
// slides a window of live keys upward through its own key space. The
// engine's cost per operation grows with the operations it has run (no
// page is reclaimed), so a round is a fixed number of operations on a
// fresh engine, ending with a full scan checked against the model, and
// rounds repeat for --seconds.
func runJournalChurn(cfg runCfg, m mode) (*phase, error) {
	opts := patree.Options{Persistence: patree.Strong, Journal: true, Shards: churnShards}
	return runRounds(cfg, m, minChurnRounds, true, func(seed uint64) (*round, error) {
		t0 := time.Now()
		e, err := openEngine(opts, m == modeTraced)
		if err != nil {
			return nil, err
		}
		mixes := make([]*churnMix, loaders)
		mixers := make([]mixer, loaders)
		for g := range mixes {
			mixes[g] = newChurnMix(seed, g, churnWindow)
			mixers[g] = mixes[g]
			if err := mixes[g].preload(e.db); err != nil {
				e.close()
				return nil, err
			}
		}
		r := newRound(time.Since(t0))

		before := takeSnapshot(e, nil)
		if e.dev != nil {
			e.dev.recording.Store(true)
		}
		r.loop = runClosedAll(e.db, mixers, closedCfg{depth: depth, start: before.at, maxOps: churnOps / loaders, traced: e.dev != nil})
		after := takeSnapshot(e, nil)
		// A round lasts about a second and counts as one window.
		tput := float64(r.loop.completed) / after.at.Sub(before.at).Seconds()
		r.windows["throughput_ops"] = []float64{tput}
		r.windows["capacity_ops"] = []float64{tput}
		r.windows["cpu_us_per_op"] = []float64{per(us(after.cpu-before.cpu), float64(r.loop.completed))}
		latencyMetrics(r, r.loop, 0)
		r.notes = append(r.notes,
			metricLine{"scan_p50_us", "us", median(r.loop.lat[kindScan].p50s(0))},
			metricLine{"scan_p99_us", "us", median(r.loop.lat[kindScan].p99s(0))},
		)

		live := 0
		for _, m := range mixes {
			live += int(m.hi - m.lo)
		}
		if pairs, err := e.db.Scan(0, math.MaxUint64, 0); err != nil {
			r.errs = append(r.errs, fmt.Errorf("final scan: %w", err))
		} else if err := verifyAll(pairs, mixes); err != nil {
			r.errs = append(r.errs, err)
		}
		if n := after.stats.NumKeys; n != uint64(live) {
			r.errs = append(r.errs, fmt.Errorf("engine holds %d keys, want %d", n, live))
		}
		return r, closeRound(cfg, r, e, layerInputs{before: before, after: after, loop: r.loop}, before.at, live)
	})
}
