package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-mix: an in-process serve daemon on loopback driven by nproc
// closed-loop HTTP clients replaying a seeded request sequence. Most
// requests repeat the base deck set that set-up warmed; one request in
// every block of coldEvery, at a seeded offset, is a never-seen deck.

const coldEvery = 50

// serveSlots is the base deck set: 32 small designs across the corpus
// families, so a warm hit exercises fingerprinting and manifest
// encoding on realistic finding counts.
var serveSlots = []slot{
	{invChain, 8, 11}, {invChain, 12, 15}, {invChain, 16, 19}, {invChain, 20, 23},
	{adder, 4, 4}, {adder, 5, 5}, {adder, 6, 6}, {adder, 7, 7},
	{pipe, 4, 5}, {pipe, 6, 7}, {pipe, 8, 9}, {pipe, 10, 11},
	{racyPipe, 4, 5}, {racyPipe, 6, 7}, {racyPipe, 8, 9}, {racyPipe, 10, 11},
	{passMux, 4, 5}, {passMux, 6, 7}, {passMux, 8, 9}, {passMux, 10, 11},
	{dcvsl, 4, 5}, {dcvsl, 6, 7}, {dcvsl, 8, 9}, {dcvsl, 10, 11},
	{sram4, 2, 2}, {sram4, 3, 3}, {sram4, 4, 4}, {sram4, 10, 10},
	{regf4, 2, 2}, {regf4, 3, 3}, {invChain, 24, 27}, {adder, 8, 8},
}

var serveSlotsTiny = []slot{{invChain, 8, 11}, {adder, 4, 4}, {racyPipe, 4, 5}, {dcvsl, 4, 5}}

// serveDeck is one request body with its expected response.
type serveDeck struct {
	deck    []byte
	devices int
	status  int    // 200, or 422 when the design has violations
	tally   string // the expected X-Fcv-Verdicts header
}

func expect(g generated) (serveDeck, error) {
	deck, err := renderCell(g.c)
	if err != nil {
		return serveDeck{}, err
	}
	ref, err := reference(g.c)
	if err != nil {
		return serveDeck{}, err
	}
	d := serveDeck{deck: deck, devices: len(g.c.Devices), status: http.StatusOK}
	var p, i, v int
	switch ref.verdict {
	case "pass":
		p = 1
	case "inspect":
		i = 1
	default:
		v = 1
		d.status = http.StatusUnprocessableEntity
	}
	d.tally = fmt.Sprintf("pass=%d inspect=%d violation=%d error=0", p, i, v)
	return d, nil
}

// lockedBuffer is the daemon's in-memory access log.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

type serveState struct {
	seed      int64
	slots     []slot
	base      []serveDeck
	srv       *serve.Server
	hs        *http.Server
	served    chan error // receives Serve's return
	transport *http.Transport
	client    *http.Client
	url       string
	log       *lockedBuffer
	digest    string
	stopOnce  sync.Once
}

func setupServe(cfg config) (*serveState, error) {
	st := &serveState{seed: cfg.seed, slots: serveSlots, log: &lockedBuffer{}}
	if cfg.tiny {
		st.slots = serveSlotsTiny
	}
	dg := sha256.New()
	for _, g := range generate("s", st.slots, opRNG(cfg.seed, "serve-base", 0)) {
		d, err := expect(g)
		if err != nil {
			return nil, err
		}
		dg.Write(d.deck)
		st.base = append(st.base, d)
	}
	st.digest = digest(dg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	scfg := serve.Config{Core: verifyOptions(), Workers: cfg.nproc}
	if cfg.traced {
		scfg.AccessLog = st.log
	}
	st.srv = serve.New(scfg)
	st.hs = &http.Server{Handler: st.srv, ReadHeaderTimeout: 30 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.transport = &http.Transport{MaxIdleConnsPerHost: cfg.nproc, MaxConnsPerHost: cfg.nproc, DisableCompression: true}
	st.client = &http.Client{Transport: st.transport, Timeout: 60 * time.Second}
	st.url = "http://" + ln.Addr().String() + "/verify"
	// Warm every base deck, then a fixed warm-up of repeat requests.
	var r result
	for k := range st.base {
		st.post(&r, st.base[k].deck, &st.base[k], nil)
	}
	warm := loop{workers: cfg.nproc, checkpoint: 8 * len(st.base), op: func(i int) []sample {
		k := opRNG(cfg.seed, "serve-warm", i).Intn(len(st.base))
		return []sample{st.post(&r, st.base[k].deck, &st.base[k], nil)}
	}}
	warm.run()
	if len(r.problems) > 0 {
		st.stop()
		return nil, fmt.Errorf("warm-up: %s", r.problems[0])
	}
	return st, nil
}

// stop shuts the daemon down and waits for its serve loop to return.
// Later calls are no-ops.
func (st *serveState) stop() {
	st.stopOnce.Do(func() {
		st.transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st.hs.Shutdown(ctx)
		<-st.served
	})
}

// coldBlock is the block op i is the never-seen deck of, or -1 when op
// i repeats a base deck.
func (st *serveState) coldBlock(i int) int {
	b := i / coldEvery
	if i%coldEvery == opRNG(st.seed, "serve-cold-at", b).Intn(coldEvery) {
		return b
	}
	return -1
}

// request is op i of the seeded sequence: its deck, and for a cold op
// the block it belongs to (else -1, and base is the deck's index).
func (st *serveState) request(i int) (deck []byte, devices, block, base int, err error) {
	if b := st.coldBlock(i); b >= 0 {
		g := st.cold(b)
		deck, err = renderCell(g.c)
		return deck, len(g.c.Devices), b, -1, err
	}
	k := opRNG(st.seed, "serve-seq", i).Intn(len(st.base))
	return st.base[k].deck, st.base[k].devices, -1, k, nil
}

// cold generates block b's never-seen deck, cycling through the base
// slots so every run's cold population has the same mix of families.
func (st *serveState) cold(b int) generated {
	s := st.slots[b%len(st.slots)]
	return generate(fmt.Sprintf("c%d_", b), []slot{s}, opRNG(st.seed, "serve-cold", b))[0]
}

// response is one answer as the client saw it.
type response struct {
	status  int
	tally   string
	trace   string
	start   time.Time
	elapsed time.Duration
}

// post sends one deck. Transport errors and refusals (429, 5xx) fail
// the op; so does an answer differing from want. A cold deck's answer
// (want nil) is checked against core.Verify after the phase.
func (st *serveState) post(r *result, deck []byte, want *serveDeck, got *response) sample {
	t0 := obs.Now()
	resp, err := st.client.Post(st.url, "text/plain", bytes.NewReader(deck))
	if err != nil {
		r.problem(fmt.Sprintf("post: %v", err))
		return sample{ms: ms(obs.Now().Sub(t0))}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := obs.Now().Sub(t0)
	tally := resp.Header.Get("X-Fcv-Verdicts")
	if got != nil {
		*got = response{status: resp.StatusCode, tally: tally, trace: resp.Header.Get("X-Fcv-Trace"), start: t0, elapsed: d}
	}
	bad := err != nil || len(body) == 0
	if want != nil {
		bad = bad || resp.StatusCode != want.status || tally != want.tally
	} else {
		bad = bad || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity)
	}
	if bad {
		r.problem(fmt.Sprintf("response %d %q (read error %v)", resp.StatusCode, tally, err))
		return sample{ms: ms(d)}
	}
	return sample{ms: ms(d), ok: true}
}

// serveCounters reads the daemon's deterministic traffic counters.
func (st *serveState) serveCounters() map[string]int64 {
	s := st.srv.StatsNow()
	return map[string]int64{
		"requests":          s.Requests,
		"rejected":          s.Rejected,
		"fleet_cache_hits":  s.Cache.Hits,
		"fleet_cache_miss":  s.Cache.Misses,
		"parse_cache_hits":  s.Counters["serve.parse_cache.hit"],
		"parse_cache_miss":  s.Counters["serve.parse_cache.miss"],
		"verdict_violation": s.Verdicts.Violation,
	}
}

func runServeMix(cfg config) (*result, error) {
	st, setupS, err := repeatSetup(cfg.setups, func() (*serveState, error) { return setupServe(cfg) }, (*serveState).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	r := &result{setupS: setupS, digest: st.digest}
	checkpoint := 100 * coldEvery
	if cfg.tiny {
		checkpoint = 2 * coldEvery
	}
	phaseBudget := cfg.budget
	if cfg.traced {
		phaseBudget /= 2
	}
	before := st.serveCounters()
	var mu sync.Mutex
	resps := map[int]response{} // cold ops, and every traced op
	op := func(i int, tr *tracer) sample {
		deck, _, block, k, err := st.request(i)
		if err != nil {
			r.problem(fmt.Sprintf("op %d: generate: %v", i, err))
			return sample{}
		}
		var want *serveDeck
		if block < 0 {
			want = &st.base[k]
		}
		var got response
		s := st.post(r, deck, want, &got)
		if tr != nil {
			tr.add(i, 0, "serve.transport", got.start, got.elapsed, "")
		}
		if block >= 0 || tr != nil {
			mu.Lock()
			resps[i] = got
			mu.Unlock()
		}
		return s
	}
	// checkColds compares cold answers with core.Verify of the same
	// design, failing the ops that differ.
	checkColds := func(samples []sample, first int) error {
		for _, i := range sortedInts(resps) {
			b := st.coldBlock(i)
			if b < 0 {
				continue
			}
			want, err := expect(st.cold(b))
			if err != nil {
				return err
			}
			if got := resps[i]; got.status != want.status || got.tally != want.tally {
				samples[i-first].ok = false
				r.problem(fmt.Sprintf("op %d (cold): response %d %q, want %d %q", i, got.status, got.tally, want.status, want.tally))
			}
		}
		return nil
	}
	p := loop{
		workers: cfg.nproc, checkpoint: checkpoint, budget: phaseBudget,
		atCheckpoint: func() {
			r.heapMB = liveHeapMB(st)
			r.heapAt = checkpoint
			now := st.serveCounters()
			for _, k := range sortedKeys(now) {
				r.work = append(r.work, count{k, now[k] - before[k]})
			}
		},
		op: func(i int) []sample { return []sample{op(i, nil)} },
	}.run()
	r.samples, r.wall = p.samples, p.wall
	if err := checkColds(r.samples, 0); err != nil {
		return nil, err
	}
	r.countFailed()
	if !cfg.traced {
		return r, nil
	}

	tr := newTracer()
	resps = map[int]response{}
	st.log.mu.Lock()
	st.log.buf.Reset()
	st.log.mu.Unlock()
	tracedBefore := st.serveCounters()
	meter := startRuntimeMeter()
	tp := loop{workers: cfg.nproc, first: p.next, budget: phaseBudget, op: func(i int) []sample {
		return []sample{op(i, tr)}
	}}.run()
	allocMB, gcPct := meter.stop(len(tp.samples))
	after := st.serveCounters()
	st.stop()
	r.traced = tp.samples
	if err := checkColds(r.traced, p.next); err != nil {
		return nil, err
	}
	led, err := st.ledger(tr, p.next, tp.next, resps)
	if err != nil {
		return nil, err
	}
	delta := func(k string) float64 { return float64(after[k] - tracedBefore[k]) }
	n := float64(max(len(tp.samples), 1))
	led.extra["serve.parse_cache_hit_pct"] = 100 * delta("parse_cache_hits") / (delta("parse_cache_hits") + delta("parse_cache_miss"))
	led.extra["serve.rejected_pct"] = 100 * delta("rejected") / n
	led.extra["fleet.cache_hit_pct"] = 100 * delta("fleet_cache_hits") / (delta("fleet_cache_hits") + delta("fleet_cache_miss"))
	led.extra["fleet.recomputed_per_op"] = delta("fleet_cache_miss") / n
	led.extra["runtime.alloc_mb_per_op"] = allocMB
	led.extra["runtime.gc_cpu_pct"] = gcPct
	led.extra["trace.overhead_pct"] = overheadPct(opsPerS(p.samples, p.wall), opsPerS(tp.samples, tp.wall))
	r.ledger, r.tracer = led, tr
	return r, nil
}

// accessRecord is the part of the daemon's access-log line the ledger
// reads.
type accessRecord struct {
	Trace   string  `json:"trace"`
	DurMS   float64 `json:"dur_ms"`
	QueueMS float64 `json:"queue_ms"`
}

// serveReplay is the handler's public sub-steps timed on one deck.
type serveReplay struct {
	parse, flatten, fingerprint, fleet, manifest time.Duration
	stages                                       []obs.SpanInfo
}

// replayServe re-runs what the daemon does for a deck — parse and
// flatten (parse-cache misses only), fleet.Verify with its fingerprint,
// and the manifest — against cache.
func replayServe(deck []byte, cache *fleet.Cache) (serveReplay, error) {
	var rp serveReplay
	t0 := obs.Now()
	lib, _, err := netlist.ParseNamed(bytes.NewReader(deck), "deck.sp")
	t1 := obs.Now()
	if err != nil {
		return rp, err
	}
	names := lib.Cells()
	flat, err := lib.Flatten(names[len(names)-1])
	t2 := obs.Now()
	if err != nil {
		return rp, err
	}
	rp.parse, rp.flatten = t1.Sub(t0), t2.Sub(t1)
	t3 := obs.Now()
	flat.Fingerprint()
	rp.fingerprint = obs.Now().Sub(t3)
	col := obs.New()
	t3 = obs.Now()
	rep := fleet.Verify([]fleet.Item{{Name: flat.Name, Circuit: flat}}, fleet.Options{Core: verifyOptions(), Workers: 1, Cache: cache, Obs: col})
	t4 := obs.Now()
	if _, err := fleet.BuildManifest("fcv serve", rep, col).JSON(); err != nil {
		return rp, err
	}
	rp.fleet, rp.manifest = t4.Sub(t3), obs.Now().Sub(t4)
	rp.stages = stageSpans(col)[flat.Name]
	return rp, nil
}

// ledger joins every traced request's client span with its access-log
// record and places replayed handler sub-steps under it.
func (st *serveState) ledger(tr *tracer, first, next int, resps map[int]response) (*ledger, error) {
	logs := map[string]accessRecord{}
	sc := bufio.NewScanner(bytes.NewReader(st.log.buf.Bytes()))
	for sc.Scan() {
		var a accessRecord
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		logs[a.Trace] = a
	}
	// Warm decks: the median of three replays against a warm cache.
	// Cold decks: one replay against an empty cache.
	warm := fleet.NewCache()
	base := make([]serveReplay, len(st.base))
	for k, d := range st.base {
		if _, err := replayServe(d.deck, warm); err != nil {
			return nil, err
		}
		var reps []serveReplay
		for j := 0; j < 3; j++ {
			rp, err := replayServe(d.deck, warm)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rp)
		}
		base[k] = medianReplay(reps)
	}
	roots := map[int]span{}
	tr.mu.Lock()
	for _, s := range tr.spans {
		roots[s.Op] = s
	}
	tr.mu.Unlock()
	devices := 0.0
	for i := first; i < next; i++ {
		got, ok := resps[i]
		a, logged := logs[got.trace]
		if !ok || !logged {
			continue
		}
		deck, devs, block, k, err := st.request(i)
		if err != nil {
			return nil, err
		}
		devices += float64(devs)
		rp := base[max(k, 0)]
		if block >= 0 {
			if rp, err = replayServe(deck, fleet.NewCache()); err != nil {
				return nil, err
			}
		}
		root := roots[i]
		dur := time.Duration(a.DurMS * 1e6)
		at := tr.epoch.Add(time.Duration(root.Start*1e6) + (got.elapsed-dur)/2)
		h := tr.add(i, root.ID, "serve.handler", at, dur, "log")
		tr.add(i, h, "serve.queue", at, time.Duration(a.QueueMS*1e6), "log")
		if block >= 0 {
			tr.add(i, h, "netlist.parse", at, rp.parse, "replay")
			tr.add(i, h, "netlist.flatten", at, rp.flatten, "replay")
		}
		f := tr.add(i, h, "fleet.self", at, rp.fleet, "replay")
		tr.add(i, f, "netlist.fingerprint", at, rp.fingerprint, "replay")
		tr.addStages(rp.stages, i, f, at)
		tr.add(i, h, "obs.manifest", at, rp.manifest, "replay")
	}
	led := tr.account(next-first, nil)
	led.extra["netlist.devices_per_op"] = devices / float64(max(next-first, 1))
	return led, nil
}

// medianReplay takes each sub-step's median across replays; stage spans
// come from the first.
func medianReplay(reps []serveReplay) serveReplay {
	pick := func(f func(serveReplay) time.Duration) time.Duration {
		xs := make([]float64, len(reps))
		for i, rp := range reps {
			xs[i] = float64(f(rp))
		}
		return time.Duration(median(xs))
	}
	out := reps[0]
	out.parse = pick(func(rp serveReplay) time.Duration { return rp.parse })
	out.flatten = pick(func(rp serveReplay) time.Duration { return rp.flatten })
	out.fingerprint = pick(func(rp serveReplay) time.Duration { return rp.fingerprint })
	out.fleet = pick(func(rp serveReplay) time.Duration { return rp.fleet })
	out.manifest = pick(func(rp serveReplay) time.Duration { return rp.manifest })
	return out
}
