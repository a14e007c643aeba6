package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/process"
	"repro/internal/serve"
	"repro/internal/timing"
)

// Daemon connection timeouts. ReadHeaderTimeout stops a client that
// trickles its headers from holding a goroutine forever; ReadTimeout
// covers reading the largest accepted body (serve.Config.MaxBodyBytes,
// 16 MiB by default); IdleTimeout closes parked keep-alive connections.
// There is deliberately no WriteTimeout: it would cut ?stream=1
// responses and long verifications mid-answer.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveReadTimeout       = 60 * time.Second
	serveIdleTimeout       = 120 * time.Second
)

// newHTTPServer wraps the daemon handler in an http.Server with the
// connection timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// runServe is the serve subcommand: the long-lived verification daemon.
//
//	fcv serve [-addr 127.0.0.1:8117] [-pool N] [-queue N] [-cache-dir d] [-lint] [-paths]
//	          [-access-log f.jsonl] [-slow-ms N] [-drain-timeout 30s]
//
// The daemon keeps the in-memory (and, with -cache-dir, on-disk)
// verification caches warm across requests and answers:
//
//	POST /verify        deck in the body (or ?path= with -paths) -> run manifest JSON
//	GET  /stats         daemon counters (admissions, cache traffic, latency quantiles)
//	GET  /metrics       Prometheus text exposition of the full telemetry surface
//	GET  /debug/traces  slow-trace index; /debug/traces/{id} is one rendered span tree
//	GET  /healthz       liveness (503 once draining)
//
// Every /verify response carries an X-Fcv-Trace header; -access-log
// appends one JSON line per request (trace, status, duration, deck
// sha256, verdict, cache traffic, queue wait) and -slow-ms retains the
// full span tree of requests over the threshold for /debug/traces.
//
// SIGTERM/SIGINT begin a graceful drain: /healthz flips to 503, new
// verifications are refused, in-flight requests finish (bounded by
// -drain-timeout), then the process exits 0.
func runServe(args []string, proc *process.Process, period float64, out *os.File) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8117", "listen address (host:port; port 0 picks a free one)")
	pool := fs.Int("pool", 0, "global worker-token pool shared by all requests (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max requests waiting for admission before 429 (0 = 4x pool)")
	cacheDir := fs.String("cache-dir", os.Getenv("FCV_CACHE_DIR"), "persistent result cache directory (default $FCV_CACHE_DIR; empty = memory only)")
	lintGate := fs.Bool("lint", false, "run the static lint gate on every request (requests may also opt in with ?lint=1)")
	paths := fs.Bool("paths", false, "allow ?path= requests to read decks from this machine's filesystem")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	accessLog := fs.String("access-log", "", "append one JSON line per /verify request to this file")
	slowMS := fs.Float64("slow-ms", 0, "retain the span tree of requests slower than this many ms at /debug/traces (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := serve.Config{
		Core:           core.Options{Proc: proc, Clock: timing.TwoPhase(period), Lint: *lintGate},
		Workers:        *pool,
		Queue:          *queue,
		AllowPathDecks: *paths,
		SlowMS:         *slowMS,
	}
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	if *cacheDir != "" {
		d, err := fleet.OpenDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		cfg.DiskCache = d
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv)
	// The "listening" line is the startup handshake: CI and scripts wait
	// for it (or poll /healthz) before sending traffic.
	fmt.Fprintf(out, "fcv serve: listening on http://%s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "fcv serve: %v — draining\n", sig)
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("serve: drain: %w", err)
		}
		fmt.Fprintln(out, "fcv serve: drained")
		return nil
	}
}
