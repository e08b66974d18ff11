// Command scm-serve exposes the simulator as an HTTP JSON service: a
// bounded worker pool runs simulations, design-space sweeps, and
// multi-tenant scheduling scenarios behind a content-addressed result
// cache, with admission control and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST /v1/simulate   one simulation (sync by default; "async":true → 202 + job id)
//	POST /v1/sweep      asynchronous design-space sweep
//	POST /v1/schedule   asynchronous multi-tenant scheduling run (202 + job id)
//	POST /v1/cluster    asynchronous multi-chip sharded scheduling run (202 + job id)
//	GET  /v1/jobs/{id}  job status and result
//	GET  /healthz       liveness and drain status
//	GET  /metrics       Prometheus text format
//
// Usage:
//
//	scm-serve                          # :8080, GOMAXPROCS workers
//	scm-serve -addr :9090 -workers 4 -cache-mib 128
//	scm-serve -job-timeout 5m -drain-timeout 30s
//	scm-serve -pprof 127.0.0.1:6060    # profiling endpoints on a side mux
//	scm-serve -journal /var/lib/scm/journal -checkpoint-layers 8
//	scm-serve -journal d -chaos 'seed=7;journal-io:p=0.1'  # fault drill
//
// With -journal, every async job's lifecycle is written through an
// fsync-on-commit write-ahead journal, and a restarted server replays
// it: finished jobs reappear in the history, accepted jobs run again,
// checkpointed simulations (-checkpoint-layers) resume mid-network,
// and orphaned running jobs surface as "interrupted" instead of
// vanishing. -chaos injects serving-layer faults (journal I/O errors,
// worker stalls, slow disk, crash points) from a seeded spec for
// resilience drills; a triggered crash point exits the process with
// status 137, exactly like the SIGKILL it stands in for.
//
// Every request gets a correlation ID (X-Request-ID honored or
// minted) that appears in the structured access log on stderr, in job
// records, and — for traced simulations — in the Perfetto trace span.
//
// The -pprof flag serves net/http/pprof on its own listener, kept off
// the API address so profiling endpoints are never reachable through
// the service port:
//
//	go tool pprof  http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//	go tool pprof  http://127.0.0.1:6060/debug/pprof/heap
//	go tool trace "http://127.0.0.1:6060/debug/pprof/trace?seconds=5"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shortcutmining/internal/chaos"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue depth; a full queue answers 429")
		cacheMiB     = flag.Int64("cache-mib", 64, "result-cache budget in MiB")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "per-job execution bound (0 = unbounded)")
		jobTTL       = flag.Duration("job-ttl", 0, "evict terminal jobs from the history this long after they finish (0 = count-based only)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound before in-flight jobs are canceled")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060); empty = off")
		journalDir   = flag.String("journal", "", "durable job-journal directory; empty = in-memory jobs only")
		ckptLayers   = flag.Int("checkpoint-layers", 0, "with -journal: checkpoint async simulations every K layer boundaries (0 = off)")
		chaosSpec    = flag.String("chaos", "", "serving-layer fault-injection spec, e.g. 'seed=7;journal-io:p=0.1;crash@checkpoint:n=3'")
	)
	flag.Parse()

	var inj *chaos.Injector
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal(err)
		}
		if inj, err = chaos.New(spec); err != nil {
			fatal(err)
		}
		inj.SetCrashFn(func(site string) {
			log.Printf("scm-serve: chaos crash point %q triggered; dying", site)
			os.Exit(137) // the exit code SIGKILL would produce
		})
		log.Printf("scm-serve: chaos injection active: %s", spec)
	}

	var jnl *journal.Journal
	var recovered []journal.Record
	if *journalDir != "" {
		var err error
		jnl, recovered, err = journal.Open(*journalDir, journal.Options{
			Now:      time.Now,
			WriteErr: inj.JournalWriteErr,
			Latency:  inj.JournalLatency,
		})
		if err != nil {
			fatal(err)
		}
		log.Printf("scm-serve: journal at %s (%d records replayed)", *journalDir, len(recovered))
	} else if *ckptLayers > 0 {
		fatal(errors.New("-checkpoint-layers needs -journal"))
	}

	engine := serve.NewEngine(serve.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheBytes:       *cacheMiB << 20,
		JobTimeout:       *jobTimeout,
		JobTTL:           *jobTTL,
		Journal:          jnl,
		CheckpointLayers: *ckptLayers,
		Chaos:            inj,
		Logger:           slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if jnl != nil {
		report, err := engine.Recover(recovered)
		if err != nil {
			fatal(err)
		}
		log.Printf("scm-serve: journal recovery: %s", report)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandler(engine),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// A dedicated mux, not http.DefaultServeMux: importing
		// net/http/pprof registers handlers globally, and the API server
		// must never inherit them.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("scm-serve: pprof listener: %v", err)
			}
		}()
		log.Printf("scm-serve: pprof on %s", *pprofAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("scm-serve: listening on %s (%d workers, queue %d, cache %d MiB)",
		*addr, engine.Workers(), *queue, *cacheMiB)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight jobs finish
	// until the deadline, then cancel the stragglers.
	log.Printf("scm-serve: draining (up to %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("scm-serve: http shutdown: %v", err)
	}
	if err := engine.Drain(drainCtx); err != nil {
		log.Printf("scm-serve: in-flight jobs canceled at the drain deadline: %v", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(drainCtx); err != nil {
			log.Printf("scm-serve: pprof shutdown: %v", err)
		}
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			log.Printf("scm-serve: journal close: %v", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Print("scm-serve: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scm-serve:", err)
	os.Exit(1)
}
