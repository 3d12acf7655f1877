// Command cppcd serves the simulator as a long-running HTTP daemon:
// submit simulation jobs (the paper's figure/table matrix, single-cell
// simulations, Monte-Carlo fault campaigns), poll or stream their
// progress, and fetch cached results for free on resubmission.
//
//	cppcd                          # listen on :8322
//	cppcd -addr :9000 -workers 4   # bounded worker pool
//	cppcd -data-dir /var/lib/cppc  # cell results survive restarts
//	cppcd -peers http://b:8322     # share the cell cache with daemon b
//	cppcd -peers ... -fleet-token s3cret   # require the secret on /fleet/*
//
//	curl -s localhost:8322/jobs -d '{"kind":"suite","budget":"quick","figures":["fig10"]}'
//	curl -s localhost:8322/jobs/job-1
//	curl -s localhost:8322/jobs/job-1/result
//	curl -s localhost:8322/metrics
//
// SIGINT/SIGTERM stop the listener and drain in-flight jobs (bounded by
// -drain) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cppc/internal/cellstore"
	"cppc/internal/fleet"
	"cppc/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8322", "listen address")
		workers   = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "jobs whose cells still wait for a worker")
		cacheSz   = flag.Int("cache", 256, "retained finished jobs; a done one answers resubmissions of its spec")
		drain     = flag.Duration("drain", 2*time.Minute, "max time to drain in-flight jobs on shutdown")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		dataDir     = flag.String("data-dir", "", "directory for the disk cell store; empty keeps cells in memory only")
		dataMax     = flag.Int64("data-max", cellstore.DefaultDiskMaxBytes, "disk cell store size bound in bytes")
		peersFlag   = flag.String("peers", "", "comma-separated peer base URLs (e.g. http://b:8322,http://c:8322); empty disables fleet mode")
		peerTimeout = flag.Duration("peer-timeout", 5*time.Second, "budget to wait on a peer before falling back to local execution")
		fleetID     = flag.String("fleet-id", "", "node ID for fleet claim tie-breaks (default hostname+addr)")
		fleetToken  = flag.String("fleet-token", "", "shared secret required on /fleet/* requests; every daemon in the fleet must use the same value (empty disables auth)")
	)
	flag.Parse()

	// Cell store tiers: memory in front, disk behind it when -data-dir is
	// set, so a restarted daemon serves yesterday's cells as cache hits.
	var store cellstore.Store = cellstore.NewMemory(0)
	if *dataDir != "" {
		disk, err := cellstore.NewDisk(*dataDir, *dataMax)
		if err != nil {
			log.Fatalf("cppcd: disk store at %s: %v", *dataDir, err)
		}
		store = cellstore.NewTiered(store, disk)
		log.Printf("cppcd: disk cell store at %s (bound %d bytes)", *dataDir, *dataMax)
	}

	svc := service.New(service.Config{Workers: *workers, QueueSize: *queue, CacheSize: *cacheSz, Store: store})

	mux := http.NewServeMux()
	mux.Handle("/", service.NewServer(svc).Handler())

	// Fleet mode: mount the peer protocol next to the job API and hand
	// the service its coordinator before traffic arrives.
	var node *fleet.Node
	if *peersFlag != "" {
		var peers []string
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, strings.TrimSuffix(p, "/"))
			}
		}
		self := *fleetID
		if self == "" {
			host, _ := os.Hostname()
			self = host + *addr
		}
		node = fleet.New(fleet.Config{
			Self:        self,
			Peers:       peers,
			Local:       store,
			Exec:        svc,
			PeerTimeout: *peerTimeout,
			Token:       *fleetToken,
			Logf:        log.Printf,
		})
		svc.SetCoordinator(node)
		mux.Handle("/fleet/", node.Handler())
		log.Printf("cppcd: fleet mode as %q with %d peers (peer timeout %v)", self, len(peers), *peerTimeout)
	}

	srv := &http.Server{Addr: *addr, Handler: mux}

	if *pprofAddr != "" {
		// Profiling stays off the job-facing listener so exposing the
		// service never exposes the profiler; bind -pprof to localhost.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("cppcd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("cppcd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if node != nil {
		// Only poll peers once our own /fleet/ routes are being served.
		node.Start()
	}
	log.Printf("cppcd: listening on %s (%d workers, queue %d, cache %d)",
		*addr, *workers, *queue, *cacheSz)

	select {
	case err := <-errc:
		log.Fatalf("cppcd: serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("cppcd: shutting down, draining jobs (up to %v)...", *drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if node != nil {
		// Stop stealing before the drain so no new cells land here.
		node.Close()
	}
	// Stop the listener first so no new jobs arrive, then drain the pool.
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("cppcd: http shutdown: %v", err)
		_ = srv.Close()
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("cppcd: drain deadline hit, canceled remaining jobs")
		} else {
			log.Printf("cppcd: drain: %v", err)
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("cppcd: store close: %v", err)
	}
	log.Printf("cppcd: bye")
}
