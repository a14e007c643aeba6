package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/process"
	"repro/internal/timing"
)

// cleanDeck is a small static-CMOS deck that verifies without findings.
const cleanDeck = `
.subckt inv a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
x1 in mid inv
x2 mid out inv
`

// brokenDeck trips the lint gate — an undriven gate net (FCV001) and an
// always-on VDD→VSS sneak device (FCV003), both error severity — so a
// ?lint=1 request must answer 422.
const brokenDeck = `
.subckt bad in out
mflt out ghost vss vss nmos w=2 l=0.75
mfp  out in    vdd vdd pmos w=4 l=0.75
msn  vdd vdd   vss vss nmos w=2 l=0.75
.ends
x1 a y bad
`

func testConfig() Config {
	return Config{
		Core: core.Options{Proc: process.CMOS075(), Clock: timing.TwoPhase(3000)},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	return s, hs
}

func postDeck(t *testing.T, url, deck string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func TestVerifyCleanDeckReturnsManifest(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, body := postDeck(t, hs.URL+"/verify", cleanDeck)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", resp.StatusCode, body)
	}
	m, err := obs.ParseManifest(body)
	if err != nil {
		t.Fatalf("response is not a valid manifest: %v", err)
	}
	if m.Tool != "fcv serve" {
		t.Errorf("tool = %q", m.Tool)
	}
	if len(m.Items) != 1 || m.Items[0].Verdict != "pass" && m.Items[0].Verdict != "inspect" {
		t.Errorf("items = %+v", m.Items)
	}
	if got := resp.Header.Get("X-Fcv-Verdicts"); !strings.Contains(got, "violation=0 error=0") {
		t.Errorf("verdict header = %q", got)
	}
}

func TestVerifySeededDeckReturns422(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, body := postDeck(t, hs.URL+"/verify?lint=1", brokenDeck)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body: %s", resp.StatusCode, body)
	}
	m, err := obs.ParseManifest(body)
	if err != nil {
		t.Fatalf("422 body is not a valid manifest: %v", err)
	}
	if m.Verdicts.Error+m.Verdicts.Violation == 0 {
		t.Errorf("verdicts = %+v, want a violation or error", m.Verdicts)
	}
	if len(m.Items) != 1 || len(m.Items[0].Findings) == 0 {
		t.Errorf("seeded deck produced no findings: %+v", m.Items)
	}
}

func TestVerifyBadDeckReturns400(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	resp, _ := postDeck(t, hs.URL+"/verify", "mn y a vss\n") // too few MOS fields
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := s.StatsNow().BadRequests; got != 1 {
		t.Errorf("bad_requests = %d, want 1", got)
	}
}

// TestVerifyBodyCap: a deck of exactly MaxBodyBytes verifies, and one
// byte more is a 400 the access log records. The cap fires while the
// body is read, before the parse cache is consulted, so neither parse
// cache counter moves.
func TestVerifyBodyCap(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig()
	cfg.MaxBodyBytes = int64(len(cleanDeck))
	cfg.AccessLog = &log
	s, hs := newTestServer(t, cfg)
	if resp, body := postDeck(t, hs.URL+"/verify", cleanDeck); resp.StatusCode != http.StatusOK {
		t.Fatalf("deck at the cap: status %d, want 200; body: %s", resp.StatusCode, body)
	}
	before := s.StatsNow().Counters
	resp, body := postDeck(t, hs.URL+"/verify", cleanDeck+"\n")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "request body too large") {
		t.Fatalf("deck one byte over the cap: status %d, body %q; want 400 request body too large", resp.StatusCode, body)
	}
	after := s.StatsNow().Counters
	for _, name := range []string{"serve.parse_cache.hit", "serve.parse_cache.miss"} {
		if after[name] != before[name] {
			t.Errorf("%s moved %d -> %d on an oversized body", name, before[name], after[name])
		}
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	var rec accessRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || rec.Status != http.StatusBadRequest {
		t.Errorf("access log: %d lines, last status %d; want 2 lines ending in 400", len(lines), rec.Status)
	}
}

func TestVerifyGetMethodNotAllowed(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, err := http.Get(hs.URL + "/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestPathDecksDisabledByDefault(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, err := http.Post(hs.URL+"/verify?path=/etc/hostname", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (path decks disabled)", resp.StatusCode)
	}
}

func TestWarmRepeatHitsCacheAndStats(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	for i := 0; i < 3; i++ {
		resp, body := postDeck(t, hs.URL+"/verify", cleanDeck)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	st := s.StatsNow()
	if st.Served != 3 {
		t.Fatalf("served = %d, want 3", st.Served)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 2 {
		t.Errorf("cache hits=%d misses=%d, want 2/1 (warm repeats must hit)", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Cache.Entries)
	}
	if st.Verdicts.Pass+st.Verdicts.Inspect != 3 {
		t.Errorf("verdict tally = %+v", st.Verdicts)
	}
}

func TestStatsEndpointShape(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	postDeck(t, hs.URL+"/verify", cleanDeck)
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PoolWorkers < 1 || st.Requests != 1 || st.Served != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Counters["fleet.items"] != 1 {
		t.Errorf("merged counters missing fleet.items: %v", st.Counters)
	}
}

func TestBackpressure429WhenSaturated(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Queue = -1 // no waiting: a busy pool must answer 429 immediately
	s, hs := newTestServer(t, cfg)
	// Hold the daemon's only worker token so the next request finds the
	// pool saturated — deterministic, no timing games.
	got, _, ok := s.pool.acquire(context.Background(), 1)
	if !ok || got != 1 {
		t.Fatalf("could not take the pool token: got=%d ok=%v", got, ok)
	}
	resp, _ := postDeck(t, hs.URL+"/verify", cleanDeck)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.StatsNow().Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.StatsNow().Rejected)
	}
	s.pool.release(got)
	// With the token back, the same request must now succeed.
	resp, body := postDeck(t, hs.URL+"/verify", cleanDeck)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d: %s", resp.StatusCode, body)
	}
}

func TestQueuedRequestRunsAfterRelease(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Queue = 8
	s, hs := newTestServer(t, cfg)
	got, _, ok := s.pool.acquire(context.Background(), 1)
	if !ok {
		t.Fatal("could not take the pool token")
	}
	done := make(chan int, 1)
	go func() {
		resp, _ := postDeck(t, hs.URL+"/verify", cleanDeck)
		done <- resp.StatusCode
	}()
	// The request is queued, not rejected: give it a moment to enter the
	// admission queue, then free the token and expect success.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	s.pool.release(got)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", code)
	}
	if s.StatsNow().Counters["serve.queued"] != 1 {
		t.Errorf("serve.queued = %d, want 1", s.StatsNow().Counters["serve.queued"])
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s, hs := newTestServer(t, testConfig())
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d before drain", resp.StatusCode)
	}
	s.SetDraining(true)
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d while draining, want 503", resp.StatusCode)
	}
	resp, _ = postDeck(t, hs.URL+"/verify", cleanDeck)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify while draining = %d, want 503", resp.StatusCode)
	}
}

// TestStreamEventsEndInManifest exercises ?stream=1: the chunked body
// is JSONL — run/item/stage events in the sink's deterministic order —
// and its last line is the full run manifest.
func TestStreamEventsEndInManifest(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, err := http.Post(hs.URL+"/verify?stream=1", "text/plain", strings.NewReader(cleanDeck))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 3 {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	var first obs.Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Type != "run-start" {
		t.Errorf("first line = %q (err %v), want a run-start event", lines[0], err)
	}
	m, err := obs.ParseManifest([]byte(lines[len(lines)-1]))
	if err != nil {
		t.Fatalf("last stream line is not a manifest: %v", err)
	}
	if len(m.Items) != 1 {
		t.Errorf("streamed manifest items = %d", len(m.Items))
	}
	// Every intermediate line must be a well-formed event.
	seenEnd := false
	for _, ln := range lines[:len(lines)-1] {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", ln, err)
		}
		if ev.Type == "run-end" {
			seenEnd = true
		}
	}
	if !seenEnd {
		t.Error("stream has no run-end event")
	}
}

func TestCellsParamVerifiesEveryCell(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	deck := cleanDeck
	resp, body := postDeck(t, hs.URL+"/verify?cells=1", deck)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	m, err := obs.ParseManifest(body)
	if err != nil {
		t.Fatal(err)
	}
	// inv plus the top-level element soup.
	if len(m.Items) != 2 {
		t.Errorf("items = %d, want 2 (every cell)", len(m.Items))
	}
}
