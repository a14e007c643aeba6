package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{8}-[0-9]{6}$`)

// TestTraceHeaderJoinsManifest every /verify response carries an
// X-Fcv-Trace header, and the manifest's volatile trace field holds the
// same ID — the join key between client and server observations.
func TestTraceHeaderJoinsManifest(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, body := postDeck(t, hs.URL+"/verify", cleanDeck)
	tid := resp.Header.Get("X-Fcv-Trace")
	if !traceIDRe.MatchString(tid) {
		t.Fatalf("X-Fcv-Trace = %q, want epoch-seq form", tid)
	}
	m, err := obs.ParseManifest(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace != tid {
		t.Errorf("manifest trace = %q, header = %q", m.Trace, tid)
	}
	// A second request gets a distinct ID.
	resp2, _ := postDeck(t, hs.URL+"/verify", cleanDeck)
	if tid2 := resp2.Header.Get("X-Fcv-Trace"); tid2 == tid || !traceIDRe.MatchString(tid2) {
		t.Errorf("second trace = %q (first %q), want a fresh ID", tid2, tid)
	}
}

// TestAccessLogEveryExitPath one JSONL line per request, on the happy
// path and on every refusal, each carrying the response's trace ID.
func TestAccessLogEveryExitPath(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.AccessLog = &buf
	_, hs := newTestServer(t, cfg)

	okResp, _ := postDeck(t, hs.URL+"/verify", cleanDeck) // 200
	postDeck(t, hs.URL+"/verify", "mn y a vss\n")         // 400
	postDeck(t, hs.URL+"/verify?lint=1", brokenDeck)      // 422
	getResp, err := http.Get(hs.URL + "/verify")          // 405
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("access log has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	var recs []accessRecord
	for _, ln := range lines {
		var rec accessRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad access-log line %q: %v", ln, err)
		}
		if !traceIDRe.MatchString(rec.Trace) {
			t.Errorf("access-log trace = %q", rec.Trace)
		}
		recs = append(recs, rec)
	}
	wantStatus := []int{200, 400, 422, 405}
	for i, want := range wantStatus {
		if recs[i].Status != want {
			t.Errorf("line %d status = %d, want %d", i, recs[i].Status, want)
		}
	}
	if recs[0].Trace != okResp.Header.Get("X-Fcv-Trace") {
		t.Errorf("access-log trace %q != response header %q", recs[0].Trace, okResp.Header.Get("X-Fcv-Trace"))
	}
	if recs[0].Verdict != "pass" && recs[0].Verdict != "inspect" {
		t.Errorf("clean-deck verdict = %q", recs[0].Verdict)
	}
	if len(recs[0].Deck) != 64 {
		t.Errorf("deck fingerprint = %q, want sha256 hex", recs[0].Deck)
	}
	if recs[0].Workers < 1 || recs[0].DurMS <= 0 {
		t.Errorf("served line workers=%d dur=%g, want positive", recs[0].Workers, recs[0].DurMS)
	}
	if recs[2].Verdict == "pass" || recs[2].Verdict == "" {
		t.Errorf("lint-gated deck verdict = %q, want violation/error", recs[2].Verdict)
	}
	if recs[3].Deck != "" || recs[3].Verdict != "" {
		t.Errorf("405 line carries deck/verdict: %+v", recs[3])
	}
}

// TestSlowTraceCapture with SlowMS well under any real request
// duration, every served request's span tree lands in the ring and is
// retrievable by trace ID through the debug endpoints.
func TestSlowTraceCapture(t *testing.T) {
	cfg := testConfig()
	cfg.SlowMS = 0.0001
	s, hs := newTestServer(t, cfg)
	resp, _ := postDeck(t, hs.URL+"/verify", cleanDeck)
	tid := resp.Header.Get("X-Fcv-Trace")

	idxResp, err := http.Get(hs.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer idxResp.Body.Close()
	var idx []slowTrace
	if err := json.NewDecoder(idxResp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0].Trace != tid {
		t.Fatalf("trace index = %+v, want one entry for %s", idx, tid)
	}
	if idx[0].DurMS <= 0 || idx[0].Verdict == "" || idx[0].Status != 200 {
		t.Errorf("index entry incomplete: %+v", idx[0])
	}

	trResp, err := http.Get(hs.URL + "/debug/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer trResp.Body.Close()
	body, _ := io.ReadAll(trResp.Body)
	if trResp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch = %d: %s", trResp.StatusCode, body)
	}
	// The rendered body is the same span tree + counters `fcv verify
	// -trace` prints: a fleet root span and the deterministic counters.
	for _, want := range []string{"fleet", "fleet.items"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("rendered trace missing %q:\n%s", want, body)
		}
	}

	if resp404, err := http.Get(hs.URL + "/debug/traces/no-such-id"); err != nil {
		t.Fatal(err)
	} else {
		resp404.Body.Close()
		if resp404.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace = %d, want 404", resp404.StatusCode)
		}
	}

	// The debug endpoints stay reachable while draining.
	s.SetDraining(true)
	if drained, err := http.Get(hs.URL + "/debug/traces"); err != nil {
		t.Fatal(err)
	} else {
		drained.Body.Close()
		if drained.StatusCode != http.StatusOK {
			t.Errorf("/debug/traces while draining = %d", drained.StatusCode)
		}
	}
}

// TestRequestLatencyIsOneDuration a served request's latency is one
// value, taken once its answer is written: the access log's dur_ms is
// both the serve.request_ms observation and the slow trace's duration.
func TestRequestLatencyIsOneDuration(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.AccessLog = &buf
	cfg.SlowMS = 0.0001
	s, hs := newTestServer(t, cfg)
	postDeck(t, hs.URL+"/verify", cleanDeck)
	var rec accessRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("access log %q: %v", buf.Bytes(), err)
	}
	h := s.col.Snapshot().Histograms["serve.request_ms"]
	if h.Count != 1 || h.Sum != rec.DurMS {
		t.Errorf("serve.request_ms count %d sum %g, want one observation of dur_ms %g", h.Count, h.Sum, rec.DurMS)
	}
	if idx := s.ring.index(); len(idx) != 1 || idx[0].DurMS != rec.DurMS {
		t.Errorf("slow traces %+v, want one of dur_ms %g", idx, rec.DurMS)
	}
}

// TestTraceRingBounded the ring keeps only the newest max entries.
func TestTraceRingBounded(t *testing.T) {
	r := newTraceRing(2)
	r.add(slowTrace{Trace: "a"})
	r.add(slowTrace{Trace: "b"})
	r.add(slowTrace{Trace: "c"})
	idx := r.index()
	if len(idx) != 2 || idx[0].Trace != "c" || idx[1].Trace != "b" {
		t.Errorf("ring index = %+v, want [c b]", idx)
	}
	if _, ok := r.get("a"); ok {
		t.Error("evicted trace still retrievable")
	}
	if _, ok := r.get("c"); !ok {
		t.Error("retained trace not retrievable")
	}
}

// TestStreamCarriesTraceEvent a ?stream=1 response includes a run-level
// trace event after run-end, carrying the header's trace ID — and the
// trailing manifest repeats it.
func TestStreamCarriesTraceEvent(t *testing.T) {
	_, hs := newTestServer(t, testConfig())
	resp, err := http.Post(hs.URL+"/verify?stream=1", "text/plain", strings.NewReader(cleanDeck))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tid := resp.Header.Get("X-Fcv-Trace")
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var sawTrace bool
	var sawEnd bool
	for _, ln := range lines[:len(lines)-1] {
		var ev obs.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", ln, err)
		}
		if ev.Type == "run-end" {
			sawEnd = true
		}
		if ev.Type == "trace" {
			sawTrace = true
			if ev.Detail != tid {
				t.Errorf("trace event detail = %q, header = %q", ev.Detail, tid)
			}
			if !sawEnd {
				t.Error("trace event arrived before run-end")
			}
		}
	}
	if !sawTrace {
		t.Error("stream has no trace event")
	}
	m, err := obs.ParseManifest([]byte(lines[len(lines)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if m.Trace != tid {
		t.Errorf("streamed manifest trace = %q, header = %q", m.Trace, tid)
	}
}
