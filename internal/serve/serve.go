// Package serve is the long-lived verification service: an HTTP/JSON
// daemon over the internal/fleet engine. The paper's methodology only
// pays off because verification runs constantly — every edit re-checked
// against the switch-level and timing batteries — and the agent-driven
// flows in PAPERS.md assume the same shape: an autonomous designer
// hammering the verifier in a tight loop where latency is the product.
// This package turns the batch fleet into that service:
//
//   - POST /verify — submit a SPICE deck (request body, or ?path= when
//     the server allows it) and get back the run manifest (the same
//     fcv-run-manifest/v2 document `fcv verify -manifest` writes, so
//     `fcv diff` gates HTTP results against batch runs directly), or —
//     with ?stream=1 — the live JSONL event stream over a chunked
//     response, ending in the manifest as its last line.
//   - GET /stats — daemon counters: requests, admissions, rejections,
//     cache traffic, pool occupancy, request-latency quantiles, and the
//     merged per-request obs counters.
//   - GET /healthz — liveness; flips to 503 once draining begins.
//
// Parsed results and the memory+disk verification caches stay warm
// across requests: the daemon owns one fleet.Cache (and optionally one
// fleet.DiskCache), so a repeated deck is a singleflight cache hit no
// matter how many clients race on it, and a rename-only edit re-uses
// the structural-fingerprint entry.
//
// ?hier=1 switches a request onto fleet.VerifyHier: each subcell is
// keyed on its fingerprint-DAG hash against the same shared caches, so
// an agent editing one leaf cell between requests pays only for the
// edited cell and its path to the root — the daemon-side twin of
// `fcv verify -hier -cache-dir`. The fleet.subcell.{hit,miss,compose}
// counters on /stats and /metrics (pre-registered, so the exposition's
// shape is traffic-independent) are the observable evidence.
//
// Backpressure contract: a global pool of worker tokens bounds total
// verification parallelism; each request needs one token to run and may
// opportunistically take up to its ?j= budget when the pool is idle. At
// most Queue requests wait for a first token; past that the daemon
// answers 429 with Retry-After rather than queueing unboundedly —
// callers are expected to back off and retry, never to hang.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Config configures a verification server.
type Config struct {
	// Core is the base per-design verification configuration (process,
	// clock, lint gate default). Requests may enable the lint gate per
	// request with ?lint=1; everything else is server policy.
	Core core.Options
	// Workers is the global worker-token pool size shared by all
	// requests (0 = GOMAXPROCS).
	Workers int
	// Queue bounds how many requests may wait for admission before the
	// daemon answers 429 (0 = a sensible default of 4x Workers;
	// negative = no waiting, reject unless a worker is free).
	Queue int
	// MaxBodyBytes caps the accepted deck size (0 = 16 MiB).
	MaxBodyBytes int64
	// Cache is the shared in-memory verification cache (nil = a fresh
	// one, which is almost always what a daemon wants).
	Cache *fleet.Cache
	// DiskCache, when non-nil, layers the persistent cache under the
	// memory one, exactly like `fcv verify -cache-dir`.
	DiskCache *fleet.DiskCache
	// AllowPathDecks permits ?path= requests that read decks from the
	// server's filesystem. Off by default: only enable for trusted
	// local callers (the CI smoke, a designer's own machine).
	AllowPathDecks bool
	// AccessLog, when non-nil, receives one JSONL accessRecord line per
	// /verify request (every exit path: 200, 400, 405, 422, 429, 503).
	AccessLog io.Writer
	// SlowMS, when positive, retains the full rendered span tree of any
	// request slower than this many milliseconds in the slow-trace ring
	// (GET /debug/traces). 0 disables capture.
	SlowMS float64
}

// Bounds on the daemon's retained state: the deck parse cache in
// entries, and the slow-trace ring in traces.
const (
	parseCacheSize = 64
	slowTraceCap   = 32
)

// Server is the verification daemon: an http.Handler plus the warm
// state it keeps between requests. Construct with New.
type Server struct {
	cfg    Config
	pool   *workerPool
	mux    *http.ServeMux
	col    *obs.Collector // server-lifetime telemetry (merged request counters)
	parses *parseCache
	ring   *traceRing

	start    time.Time
	epoch    int64 // start time in Unix seconds; the trace-ID prefix
	traceSeq atomic.Int64
	logMu    sync.Mutex // serializes access-log writers
	draining atomic.Bool

	// Lifetime tallies, surfaced at /stats.
	requests, served, rejected, badRequests atomic.Int64
	cacheHits, cacheMisses                  atomic.Int64
	diskHits, diskMisses                    atomic.Int64
	tallyPass, tallyInspect                 atomic.Int64
	tallyViolation, tallyError              atomic.Int64
}

// New builds a Server from cfg, filling defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.Queue == 0:
		cfg.Queue = 4 * cfg.Workers
	case cfg.Queue < 0:
		cfg.Queue = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Cache == nil {
		cfg.Cache = fleet.NewCache()
	}
	s := &Server{
		cfg:    cfg,
		pool:   newWorkerPool(cfg.Workers, cfg.Queue),
		mux:    http.NewServeMux(),
		col:    obs.New(),
		parses: newParseCache(parseCacheSize),
		ring:   newTraceRing(slowTraceCap),
		start:  obs.Now(),
	}
	s.epoch = s.start.Unix()
	// Pre-register the parse-cache counters so the /metrics name set is
	// identical whether or not a hit (or a miss) has happened yet —
	// the exposition's shape must not depend on traffic history.
	s.col.Add("serve.parse_cache.hit", 0)
	s.col.Add("serve.parse_cache.miss", 0)
	// Same for the hierarchical subcell counters: a daemon that has not
	// seen a ?hier=1 request yet must expose the same name set as one
	// mid-way through an incremental edit loop.
	s.col.Add("fleet.subcell.hit", 0)
	s.col.Add("fleet.subcell.miss", 0)
	s.col.Add("fleet.subcell.compose", 0)
	s.mux.HandleFunc("/verify", s.handleVerify)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	s.mux.HandleFunc("/debug/traces/", s.handleTraces)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/", s.handleRoot)
	return s
}

// ServeHTTP dispatches to the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetDraining flips the daemon's drain state: once draining, /healthz
// answers 503 (so load balancers stop routing here) and new /verify
// requests are refused while in-flight ones finish. The caller pairs
// this with http.Server.Shutdown for the connection-level half.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// handleRoot is a minimal usage page for humans poking with curl.
func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, `fcv serve — full-custom verification service
  POST /verify[?top=CELL&cells=1&hier=1&hier_inline=N&j=N&lint=1&stream=1][&path=deck.sp]  deck in body -> run manifest
  GET  /stats                                                         daemon counters (JSON)
  GET  /metrics                                                       Prometheus text exposition
  GET  /debug/traces                                                  slow-trace index (JSON)
  GET  /debug/traces/{id}                                             one retained span tree
  GET  /healthz                                                       liveness
`)
}

// handleHealthz answers liveness probes; draining flips it to 503.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// boolParam parses a query flag: absent and "0"/"false" are off.
func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "", "0", "false":
		return false
	}
	return true
}

// handleVerify is the daemon's workhorse: mint a trace ID, admit, load
// the deck (through the parse cache), run the fleet with the shared
// caches, respond with the manifest (or stream the event log), and
// account every exit path in the access log.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	tid, seq := s.mintTrace()
	w.Header().Set("X-Fcv-Trace", tid)
	t0 := obs.Now()
	rec := accessRecord{Trace: tid, Method: r.Method, Path: r.URL.Path}
	defer func() {
		rec.DurMS = float64(obs.Now().Sub(t0).Microseconds()) / 1000
		s.logAccess(rec)
	}()
	if s.draining.Load() {
		rec.Status = http.StatusServiceUnavailable
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if r.Method != http.MethodPost {
		rec.Status = http.StatusMethodNotAllowed
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a SPICE deck to /verify", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	q := r.URL.Query()
	want := 1
	if js := q.Get("j"); js != "" {
		j, err := strconv.Atoi(js)
		if err != nil || j < 1 {
			s.fail(w, &rec, http.StatusBadRequest, "bad j=%q (want a positive integer)", js)
			return
		}
		want = j
	}
	hierInline := 0
	if hi := q.Get("hier_inline"); hi != "" {
		n, err := strconv.Atoi(hi)
		if err != nil {
			s.fail(w, &rec, http.StatusBadRequest, "bad hier_inline=%q (want an integer)", hi)
			return
		}
		hierInline = n
	}

	// Load the deck before competing for workers: parse errors should
	// not consume pool capacity, and a 400 should be instant.
	ld, src, deckSHA, err := s.loadDeck(r)
	rec.Deck = deckSHA
	if err != nil {
		s.fail(w, &rec, http.StatusBadRequest, "%v", err)
		return
	}

	qt0 := obs.Now()
	got, queued, ok := s.pool.acquire(r.Context(), want)
	rec.QueueMS = float64(obs.Now().Sub(qt0).Microseconds()) / 1000
	if !ok {
		if r.Context().Err() != nil {
			s.badRequests.Add(1)
			rec.Status = 499 // client went away while queued; nothing to say
			return
		}
		s.rejected.Add(1)
		rec.Status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
		http.Error(w, "admission queue full, retry later", http.StatusTooManyRequests)
		return
	}
	defer s.pool.release(got)
	if queued {
		s.col.Add("serve.queued", 1)
	}
	rec.Workers = got

	col := obs.New()
	// The trace joins the request's own collector as a volatile gauge
	// (the numeric half of the ID; gauges never enter the stable half).
	col.SetGauge("serve.trace_seq", float64(seq))
	opt := fleet.Options{
		Core:       s.cfg.Core,
		Workers:    got,
		Cache:      s.cfg.Cache,
		DiskCache:  s.cfg.DiskCache,
		Obs:        col,
		HierInline: hierInline,
	}
	if boolParam(r, "lint") {
		opt.Core.Lint = true
	}

	stream := boolParam(r, "stream")
	var fw *flushWriter
	var sink *obs.EventSink
	if stream {
		// Status and headers go out before the run so events can flow
		// as they happen; verdicts travel in the run-end event and the
		// trailing manifest line instead of the status code.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fw = newFlushWriter(w)
		sink = obs.NewEventSink(fw)
		opt.Events = sink
	}

	var rep *fleet.Report
	if ld.lib != nil {
		// ?hier=1: hierarchical incremental verification against the
		// daemon's shared caches — the warm subcell replay works across
		// requests exactly like `fcv verify -hier -cache-dir` across
		// processes. Hierarchy errors (cycles, arity) were caught at load
		// time, so a failure here is the daemon's problem, not the deck's.
		rep, err = fleet.VerifyHier(ld.lib, ld.top, opt)
		if err != nil {
			if stream {
				sink.Emit("error", err.Error())
				sink.Close()
				rec.Status = http.StatusOK
				return
			}
			s.fail(w, &rec, http.StatusInternalServerError, "hier: %v", err)
			return
		}
	} else {
		rep = fleet.Verify(ld.items, opt)
	}
	elapsedMS := float64(obs.Now().Sub(t0).Microseconds()) / 1000
	s.account(rep, elapsedMS, col)
	m := fleet.BuildManifest("fcv serve", rep, col)
	m.Trace = tid

	p, i, v, f := rep.Counts()
	rec.Verdict = overallVerdict(p, i, v, f)
	rec.CacheHits, rec.CacheMisses = rep.Hits, rep.Misses
	rec.DiskHits, rec.DiskMisses = rep.DiskHits, rep.DiskMisses
	rec.Status = http.StatusOK
	if s.cfg.SlowMS > 0 && elapsedMS >= s.cfg.SlowMS {
		defer func() {
			s.ring.add(slowTrace{
				Trace:    tid,
				Src:      src,
				Status:   rec.Status,
				DurMS:    elapsedMS,
				Verdict:  rec.Verdict,
				Rendered: col.Tree() + "\n" + col.CountersText(),
			})
		}()
	}

	if stream {
		// All per-item scopes have closed, so a run-level trace event
		// may follow run-end without disturbing the stream order.
		sink.Emit("trace", tid)
		sink.Close() // flush; write errors mean the client left
		// The trailing manifest rides the same JSONL stream, so compact
		// the canonical (nil-normalized) document onto one line.
		if b, err := m.JSON(); err == nil {
			var line bytes.Buffer
			if json.Compact(&line, b) == nil {
				line.WriteByte('\n')
				fw.Write(line.Bytes())
			}
		}
		return
	}
	b, err := m.JSON()
	if err != nil {
		s.fail(w, &rec, http.StatusInternalServerError, "manifest: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Fcv-Verdicts", fmt.Sprintf("pass=%d inspect=%d violation=%d error=%d", p, i, v, f))
	if rep.HasViolations() {
		// The verification *ran*; the design is what failed. 422 keeps
		// that distinct from 400 (unusable request) so CI and agents can
		// branch on the status alone.
		rec.Status = http.StatusUnprocessableEntity
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	w.Write(b)
}

// deckLoad is loadDeck's result and the parse cache's entry: the flat
// item list, or — for ?hier=1 requests — the parsed library plus
// resolved top cell for VerifyHier (lib non-nil selects the
// hierarchical path).
type deckLoad struct {
	items []fleet.Item
	lib   *netlist.Library
	top   *netlist.Circuit
}

// loadDeck resolves the request's deck — body or ?path= — through the
// parse cache, honoring ?top=, ?cells=1 and ?hier=1. Returns the
// source name and the deck's sha256 alongside the load (the sha is the
// access log's deck fingerprint, so it is returned even when the parse
// fails). Hierarchy errors — unknown top, instance cycles, arity
// mismatches — surface here too, so the handler's verification phase
// only ever sees decks whose fingerprint DAG resolved.
func (s *Server) loadDeck(r *http.Request) (ld deckLoad, src, deckSHA string, err error) {
	q := r.URL.Query()
	top, cells, hier := q.Get("top"), boolParam(r, "cells"), boolParam(r, "hier")
	if hier && cells {
		return ld, "", "", fmt.Errorf("hier=1 and cells=1 are mutually exclusive (hier verifies every cell already)")
	}
	var data []byte
	if path := q.Get("path"); path != "" {
		if !s.cfg.AllowPathDecks {
			return ld, path, "", fmt.Errorf("path decks are disabled on this server (start with -paths)")
		}
		data, err = os.ReadFile(path)
		if err != nil {
			return ld, path, "", err
		}
		src = path
	} else {
		src = q.Get("src")
		if src == "" {
			src = "deck.sp"
		}
		body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
		data, err = io.ReadAll(body)
		if err != nil {
			return ld, src, "", err
		}
	}
	sum := sha256.Sum256(data)
	deckSHA = hex.EncodeToString(sum[:])
	key := deckSHA + "\x00" + src + "\x00" + top + "\x00" + strconv.FormatBool(cells) + "\x00" + strconv.FormatBool(hier)
	if ld, ok := s.parses.get(key); ok {
		s.col.Add("serve.parse_cache.hit", 1)
		return ld, src, deckSHA, nil
	}
	s.col.Add("serve.parse_cache.miss", 1)
	if hier {
		ld.lib, ld.top, err = fleet.HierFromDeck(bytes.NewReader(data), src, top)
		if err == nil {
			// Resolve the fingerprint DAG now so malformed hierarchies are
			// a 400 before admission, not a mid-run failure after headers
			// went out (the result itself is rebuilt memoized inside
			// VerifyHier).
			_, err = ld.lib.HierFingerprint(ld.top)
		}
	} else {
		ld.items, err = fleet.ItemsFromDeck(bytes.NewReader(data), src, top, cells)
	}
	if err != nil {
		return deckLoad{}, src, deckSHA, err
	}
	s.parses.put(key, ld)
	return ld, src, deckSHA, nil
}

// fail answers an unusable request and counts it.
func (s *Server) fail(w http.ResponseWriter, rec *accessRecord, code int, format string, args ...any) {
	s.badRequests.Add(1)
	rec.Status = code
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// account merges one request's outcome into the daemon's lifetime
// telemetry: tallies, cache traffic, request latency, and the request
// collector's deterministic counters (sorted before merging so the
// merge order — and any future iteration-order-sensitive consumer — is
// deterministic).
func (s *Server) account(rep *fleet.Report, elapsedMS float64, col *obs.Collector) {
	s.served.Add(1)
	s.cacheHits.Add(int64(rep.Hits))
	s.cacheMisses.Add(int64(rep.Misses))
	s.diskHits.Add(int64(rep.DiskHits))
	s.diskMisses.Add(int64(rep.DiskMisses))
	p, i, v, f := rep.Counts()
	s.tallyPass.Add(int64(p))
	s.tallyInspect.Add(int64(i))
	s.tallyViolation.Add(int64(v))
	s.tallyError.Add(int64(f))
	s.col.Observe("serve.request_ms", elapsedMS)
	counters := col.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.col.Add(name, counters[name])
	}
}

// Stats is the /stats document: daemon occupancy, lifetime traffic, and
// the merged request-counter map. Field order is the wire order.
type Stats struct {
	UptimeMS      float64 `json:"uptime_ms"`
	Draining      bool    `json:"draining"`
	PoolWorkers   int     `json:"pool_workers"`
	PoolAvailable int     `json:"pool_available"`
	QueueDepth    int64   `json:"queue_depth"`
	QueueLimit    int     `json:"queue_limit"`
	// Requests counts every /verify POST reaching admission; Served the
	// ones that ran to a manifest; Rejected the 429s; BadRequests the
	// 4xx-class refusals (parse errors, disabled path decks, dropped
	// clients).
	Requests    int64 `json:"requests"`
	Served      int64 `json:"served"`
	Rejected    int64 `json:"rejected"`
	BadRequests int64 `json:"bad_requests"`
	// Cache is the shared in-memory layer's lifetime traffic as seen by
	// this daemon (hits accumulate across requests — the warm-path
	// evidence the CI smoke asserts on).
	Cache struct {
		Entries int   `json:"entries"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	} `json:"cache"`
	Disk *fleet.DiskStats `json:"disk,omitempty"`
	// Verdicts tallies every served item's outcome since startup.
	Verdicts struct {
		Pass      int64 `json:"pass"`
		Inspect   int64 `json:"inspect"`
		Violation int64 `json:"violation"`
		Error     int64 `json:"error"`
	} `json:"verdicts"`
	// RequestP50MS / RequestP99MS are interpolated request-latency
	// quantiles from the serve.request_ms histogram (volatile).
	RequestP50MS float64 `json:"request_p50_ms"`
	RequestP99MS float64 `json:"request_p99_ms"`
	// Counters are the merged deterministic per-request obs counters
	// (fleet.*, core.*, recognize.*, … — plus serve.queued).
	Counters map[string]int64 `json:"counters"`
}

// StatsNow snapshots the daemon's current stats.
func (s *Server) StatsNow() Stats {
	var st Stats
	st.UptimeMS = float64(obs.Now().Sub(s.start).Microseconds()) / 1000
	st.Draining = s.draining.Load()
	st.PoolWorkers = s.pool.size
	st.PoolAvailable = s.pool.available()
	st.QueueDepth = s.pool.waiting()
	st.QueueLimit = int(s.pool.maxQueue)
	st.Requests = s.requests.Load()
	st.Served = s.served.Load()
	st.Rejected = s.rejected.Load()
	st.BadRequests = s.badRequests.Load()
	st.Cache.Entries = s.cfg.Cache.Len()
	st.Cache.Hits = s.cacheHits.Load()
	st.Cache.Misses = s.cacheMisses.Load()
	if s.cfg.DiskCache != nil {
		if ds, err := s.cfg.DiskCache.Stats(); err == nil {
			st.Disk = &ds
		}
	}
	st.Verdicts.Pass = s.tallyPass.Load()
	st.Verdicts.Inspect = s.tallyInspect.Load()
	st.Verdicts.Violation = s.tallyViolation.Load()
	st.Verdicts.Error = s.tallyError.Load()
	// One consistent snapshot feeds both quantiles and the counter map:
	// a request landing mid-read can no longer produce a p50 and p99
	// from two different distributions (or counters that disagree with
	// the histogram they summarize).
	snap := s.col.Snapshot()
	st.RequestP50MS = snap.Quantile("serve.request_ms", 0.50)
	st.RequestP99MS = snap.Quantile("serve.request_ms", 0.99)
	st.Counters = snap.Counters
	return st
}

// handleStats renders the stats document.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.StatsNow()
	b, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// flushWriter pushes every write through the ResponseWriter's flusher
// so streamed events reach the client as they happen, not when the
// response buffer fills.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	f, _ := w.(http.Flusher)
	return &flushWriter{w: w, f: f}
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}
