// Command bbsimd is the simulation-as-a-service daemon: it serves
// concurrent simulation requests over HTTP/JSON with admission control,
// per-request deadlines, panic isolation, a single-flight content-
// addressed result cache, and graceful SIGTERM drain.
//
// Usage:
//
//	bbsimd -addr :8080 -workers 8 -journal cache.journal
//	bbsimd -once request.json        # offline: evaluate one request, print the canonical bytes
//	bbsimd -once campaign.json -campaign
//
// Endpoints:
//
//	POST /v1/run       one simulation (request schema in internal/service)
//	POST /v1/campaign  base request × seed list, sharded over the worker pool
//	GET  /healthz      process liveness (always 200 while the process serves)
//	GET  /readyz       admission readiness (503 once draining)
//	GET  /metrics      service counters, Prometheus text format
//
// Identical requests are served from the cache with byte-identical bodies
// (X-Cache: hit); determinism of the evaluation path is machine-checked
// by bbvet's taint analysis and replayed by internal/invariants.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bbwfsim/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		workers      = fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 64, "admission queue length beyond the in-flight gate; full queue sheds 429")
		cacheEntries = fs.Int("cache-entries", 1024, "result cache capacity in entries (FIFO eviction; <0 = unbounded)")
		journalPath  = fs.String("journal", "", "append-only cache journal file (validated and truncated past corruption on restart; discarded if written under another model version)")
		defTimeout   = fs.Duration("default-timeout", 30*time.Second, "deadline for requests that carry no timeout_s")
		maxTimeout   = fs.Duration("max-timeout", 120*time.Second, "upper clamp on client-supplied timeout_s")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM drain waits for in-flight requests")
		panicHook    = fs.Bool("test-panic-hook", false, "admit workflow kind \"panic\" (test-only: proves panic isolation)")
		oncePath     = fs.String("once", "", "evaluate the request in this JSON file offline and print the canonical result bytes")
		onceCampaign = fs.Bool("campaign", false, "treat the -once file as a campaign request")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bbsimd: %v\n", err)
		return 1
	}

	if *oncePath != "" {
		return runOnce(*oncePath, *onceCampaign, stdout, stderr)
	}

	var journal *service.Journal
	if *journalPath != "" {
		var err error
		journal, err = service.OpenJournal(*journalPath)
		if err != nil {
			return fail(err)
		}
	}
	srv := service.NewServer(service.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheEntries:   *cacheEntries,
		Journal:        journal,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		PanicHook:      *panicHook,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errCh := make(chan error, 1)
	go func() {
		errCh <- httpSrv.ListenAndServe()
	}()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	fmt.Fprintf(stdout, "bbsimd: serving on %s (cache restored: %d entries)\n", *addr, srv.Stats().CachedEntries)

	select {
	case err := <-errCh:
		// The listener died before any signal — a startup failure like a
		// busy port.
		return fail(err)
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "bbsimd: %v received, draining\n", sig)
	}

	// Drain: stop admitting, wait for in-flight work (bounded), flush the
	// journal, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.BeginDrain(ctx); err != nil {
		fmt.Fprintf(stderr, "bbsimd: %v\n", err)
		code = 1
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "bbsimd: shutdown: %v\n", err)
		code = 1
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintf(stderr, "bbsimd: closing journal: %v\n", err)
			code = 1
		}
	}
	<-errCh // ListenAndServe has returned http.ErrServerClosed by now
	if code == 0 {
		fmt.Fprintln(stdout, "bbsimd: drained cleanly")
	}
	return code
}

// runOnce is the offline evaluation mode: the same Execute path the
// daemon serves, without the HTTP layer — CI compares daemon response
// bodies against its output byte for byte.
func runOnce(path string, campaign bool, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bbsimd: %v\n", err)
		return 1
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	var out []byte
	if campaign {
		creq, err := service.ParseCampaignRequest(data)
		if err != nil {
			return fail(err)
		}
		out, err = service.ExecuteCampaign(creq, nil)
		if err != nil {
			return fail(err)
		}
	} else {
		req, err := service.ParseRequest(data)
		if err != nil {
			return fail(err)
		}
		out, err = service.Execute(req)
		if err != nil {
			return fail(err)
		}
	}
	if _, err := stdout.Write(out); err != nil {
		return fail(err)
	}
	return 0
}
