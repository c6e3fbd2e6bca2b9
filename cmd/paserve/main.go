// paserve serves a PA-Tree over the wire protocol.
//
//	go run ./cmd/paserve -addr :7070 -shards 4 -admin :7071
//
// The store is the embedded sharded DB (in-memory device by default);
// clients connect with package client or cmd/pabench. The -admin HTTP
// endpoint exposes the full observability surface:
//
//	/metrics       Prometheus text (engine patree_* + wire patree_server_*)
//	/debug/vars    expvar JSON (engine + server snapshots)
//	/statsz        one JSON document, read by `pacli stats -remote`
//	/trace         merged Chrome trace JSON (with -trace)
//	/debug/pprof/  Go runtime profiles (CPU, heap, block, goroutine);
//	               block profiling is sampled while -admin is set
//
// -trace turns on sampled request-scoped spans (negotiated with v1
// clients), -slowop logs any request slower than the threshold with its
// server-side stage breakdown. -metrics is kept as a legacy alias for
// -admin.
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":7070", "listen address")
		admin   = flag.String("admin", "", "admin HTTP address (empty = disabled)")
		metrics = flag.String("metrics", "", "legacy alias for -admin")
		shards  = flag.Int("shards", 1, "worker shards")
		inbox   = flag.Int("inbox", 0, "admission ring depth per shard (0 = default)")
		journal = flag.Bool("journal", false, "enable the redo journal")
		weak    = flag.Bool("weak", false, "weak persistence (buffered writes)")
		blocks  = flag.Uint64("blocks", 0, "in-memory device size in 512B blocks (0 = default)")
		burst   = flag.Int("burst", 0, "max pipelined ops per admission burst (0 = default)")
		doTrace = flag.Bool("trace", false, "sample request-scoped spans (engine + wire)")
		slowOp  = flag.Duration("slowop", 0, "log requests slower than this (0 = disabled)")
		pipeln  = flag.Bool("pipelined", false, "scan sibling read-ahead in the polled workers: range scans read their next leaves together")
	)
	flag.Parse()
	if *admin == "" {
		*admin = *metrics
	}

	opts := patree.Options{
		Shards:       *shards,
		InboxDepth:   *inbox,
		Journal:      *journal,
		DeviceBlocks: *blocks,
		Trace:        *doTrace,
		Pipelined:    *pipeln,
	}
	if *weak {
		opts.Persistence = patree.Weak
	}
	db, err := patree.Open(opts)
	if err != nil {
		log.Fatalf("paserve: open: %v", err)
	}
	defer db.Close()

	srv := server.New(db, server.Options{
		BurstOps: *burst,
		Logf:     log.Printf,
		Trace:    *doTrace,
		TraceNow: db.TraceNow, // one time axis with the engine's spans
		SlowOp:   *slowOp,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("paserve: listen: %v", err)
	}
	log.Printf("paserve: serving on %s (shards=%d journal=%v trace=%v)", ln.Addr(), *shards, *journal, *doTrace)

	if *admin != "" {
		// Sample goroutine-blocking events (one per ~10µs blocked) so the
		// admin endpoint's /debug/pprof/block answers worker-stall
		// questions without a rebuild; cheap enough to leave on whenever
		// the admin surface itself is on.
		runtime.SetBlockProfileRate(10_000)
		db.PublishExpvar("patree")
		srv.PublishExpvar("patree_server")
		h := srv.AdminHandler(server.AdminConfig{
			EngineMetrics: db.MetricsHandler(),
			EngineStats:   func() any { return db.Metrics() },
			EngineProcs:   db.TraceProcesses,
		})
		go func() {
			log.Printf("paserve: admin on http://%s/{metrics,statsz,trace,debug/vars,debug/pprof}", *admin)
			s := &http.Server{Addr: *admin, Handler: h, ReadHeaderTimeout: 5 * time.Second}
			if err := s.ListenAndServe(); err != nil {
				log.Printf("paserve: admin: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case s := <-sig:
		log.Printf("paserve: %v: draining", s)
		srv.Close()
	case err := <-done:
		if err != nil {
			log.Fatalf("paserve: serve: %v", err)
		}
	}
	st := srv.Stats()
	log.Printf("paserve: done: %d conns, %d ops, %d batch ops (%d wire batches), %d busy",
		st.Accepted, st.Ops, st.BatchOps, st.WireBatches, st.Busy)
}
