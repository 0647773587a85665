// Command pdede-serve runs the multi-tenant BTB simulation service: an
// HTTP daemon that accepts streamed branch-trace batches from many
// concurrent clients and returns predictions plus rolling MPKI/IPC.
//
// Usage:
//
//	pdede-serve -addr :8080 -design pdede-multi-entry -checkpoint-dir /var/lib/pdede
//	pdede-serve -list-designs
//
// The service is engineered for failure first: one bounded apply queue
// and at most one queued batch per tenant, with explicit backpressure
// (429 + Retry-After) past either, per-tenant panic isolation with
// quarantine, idle-tenant shedding under a resident cap, and a graceful
// SIGTERM drain that checkpoints every tenant atomically so a restart
// resumes bit-identically. See internal/serve for the protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		design      = flag.String("design", "pdede-multi-entry", "BTB design to serve (see -list-designs)")
		ckptDir     = flag.String("checkpoint-dir", "", "directory for tenant checkpoints (enables drain/restart resume)")
		workers     = flag.Int("workers", 0, "worker goroutines (0 = default)")
		queueDepth  = flag.Int("queue-depth", 0, "apply queue slots per worker; the queue holds workers × this many batches before 429 (0 = default 64)")
		maxBatch    = flag.Int("max-batch-records", 0, "max records per batch before 413 (0 = default)")
		maxResident = flag.Int("max-resident-tenants", 0, "resident-tenant cap; idle tenants shed to checkpoints (0 = unbounded, requires -checkpoint-dir)")
		quarantine  = flag.Int("quarantine-after", 0, "crashes before a tenant is quarantined (0 = default)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline, bounding the body read and the wait for the worker (0 = default 30s)")
		retryAfter  = flag.Duration("retry-after", 0, "Retry-After hint on backpressure (0 = default 1s)")
		warmup      = flag.Uint64("warmup", 0, "warmup instructions per tenant (unmeasured)")
		listDesigns = flag.Bool("list-designs", false, "list servable designs and exit")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for inflight requests on shutdown")
	)
	flag.Parse()

	if *listDesigns {
		for _, d := range experiments.DiffDesigns() {
			fmt.Println(d.Name)
		}
		return
	}
	d, ok := experiments.DesignByName(*design)
	if !ok {
		fmt.Fprintf(os.Stderr, "pdede-serve: unknown design %q (try -list-designs)\n", *design)
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		Design:             d,
		WarmupInstrs:       *warmup,
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		MaxBatchRecords:    *maxBatch,
		MaxResidentTenants: *maxResident,
		CheckpointDir:      *ckptDir,
		QuarantineAfter:    *quarantine,
		RequestTimeout:     *reqTimeout,
		RetryAfter:         *retryAfter,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdede-serve: %v\n", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// SIGTERM/SIGINT trigger the graceful drain: stop accepting, let
	// inflight requests finish, checkpoint every tenant, then exit. A
	// second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		fmt.Fprintln(os.Stderr, "pdede-serve: draining (signal received)")
		// Shutdown waits for inflight batches, closes the connections still
		// open after -drain-timeout, then checkpoints every tenant.
		done <- srv.Shutdown(httpSrv, *drainWait)
	}()

	fmt.Fprintf(os.Stderr, "pdede-serve: design %s (config %s) listening on %s\n",
		d.Name, srv.ConfigDigest(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pdede-serve: %v\n", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintf(os.Stderr, "pdede-serve: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pdede-serve: drained cleanly")
}
