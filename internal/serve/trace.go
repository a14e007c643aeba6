// Request tracing: every /verify request gets a stable trace ID minted
// from the daemon's start epoch plus a request sequence number. The ID
// travels four ways — the X-Fcv-Trace response header, the structured
// access log, the manifest's volatile `trace` field, and (for slow
// requests) the slow-trace ring — so one identifier joins a client-side
// observation ("that verify took 4 seconds") to the server-side span
// tree that explains it. Trace IDs and durations live strictly in the
// volatile half of the determinism contract: `fcv diff` never compares
// them, and batch manifests don't carry them at all.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// mintTrace issues the next trace ID: the daemon's start epoch (hex
// seconds) and a per-daemon request ordinal, e.g. "68959f21-000042".
// The epoch half distinguishes daemon restarts; the ordinal half is
// dense, so the access log's trace column doubles as an arrival order.
func (s *Server) mintTrace() (string, int64) {
	seq := s.traceSeq.Add(1)
	return fmt.Sprintf("%08x-%06d", uint32(s.epoch), seq), seq
}

// accessRecord is one line of the structured access log: everything an
// operator needs to reconstruct a request without grepping the event
// stream. Field order is the wire order.
type accessRecord struct {
	Trace  string  `json:"trace"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Status int     `json:"status"`
	DurMS  float64 `json:"dur_ms"`
	// QueueMS is time spent waiting for the first worker token.
	QueueMS float64 `json:"queue_ms"`
	// Deck is the sha256 of the submitted deck bytes ("" when the body
	// never arrived — 405s, drained requests).
	Deck string `json:"deck,omitempty"`
	// Verdict is the request's overall outcome — the worst item verdict
	// (error > violation > inspect > pass) — for served requests.
	Verdict string `json:"verdict,omitempty"`
	// Workers is how many pool tokens the request actually ran with.
	Workers int `json:"workers,omitempty"`
	// Cache traffic attributable to this request.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	DiskHits    int `json:"disk_hits,omitempty"`
	DiskMisses  int `json:"disk_misses,omitempty"`
}

// logAccess appends one JSONL line to the access log, if configured.
// A single mutex serializes writers; the log is an operator artifact,
// not a hot path.
func (s *Server) logAccess(rec accessRecord) {
	if s.cfg.AccessLog == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(b, '\n'))
	s.logMu.Unlock()
}

// slowTrace is one retained slow request: identity, outcome, and the
// fully rendered span tree + counters (the same text `fcv verify
// -trace` prints), captured at request end.
type slowTrace struct {
	Trace    string  `json:"trace"`
	Src      string  `json:"src"`
	Status   int     `json:"status"`
	DurMS    float64 `json:"dur_ms"`
	Verdict  string  `json:"verdict"`
	Rendered string  `json:"-"`
}

// traceRing retains the last N slow requests' span trees. Bounded and
// overwrite-oldest: slow-trace capture must never become a memory leak
// on a daemon that is slow *all the time*.
type traceRing struct {
	mu     sync.Mutex
	max    int
	traces []slowTrace // oldest first
}

func newTraceRing(max int) *traceRing {
	return &traceRing{max: max}
}

// add retains a slow trace, evicting the oldest past capacity.
func (r *traceRing) add(tr slowTrace) {
	r.mu.Lock()
	r.traces = append(r.traces, tr)
	if len(r.traces) > r.max {
		r.traces = r.traces[len(r.traces)-r.max:]
	}
	r.mu.Unlock()
}

// index returns the retained traces, newest first, without the rendered
// bodies (those are one GET away).
func (r *traceRing) index() []slowTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]slowTrace, 0, len(r.traces))
	for i := len(r.traces) - 1; i >= 0; i-- {
		tr := r.traces[i]
		tr.Rendered = ""
		out = append(out, tr)
	}
	return out
}

// get finds a retained trace by ID.
func (r *traceRing) get(id string) (slowTrace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.traces) - 1; i >= 0; i-- {
		if r.traces[i].Trace == id {
			return r.traces[i], true
		}
	}
	return slowTrace{}, false
}

// handleTraces serves the slow-trace endpoints — deliberately reachable
// while draining, since a draining daemon is exactly when an operator
// wants to pull retained traces:
//
//	GET /debug/traces        JSON index (newest first, no bodies)
//	GET /debug/traces/{id}   the rendered span tree, text/plain
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces")
	id = strings.TrimPrefix(id, "/")
	if id == "" {
		idx := s.ring.index()
		sort.SliceStable(idx, func(i, j int) bool { return idx[i].Trace > idx[j].Trace })
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(idx, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(b, '\n'))
		return
	}
	tr, ok := s.ring.get(id)
	if !ok {
		http.Error(w, "no retained trace "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "trace %s  src=%s  status=%d  verdict=%s  dur=%.3fms\n\n",
		tr.Trace, tr.Src, tr.Status, tr.Verdict, tr.DurMS)
	io.WriteString(w, tr.Rendered)
}

// overallVerdict collapses a report's item tallies to the worst one.
func overallVerdict(pass, inspect, violation, errs int) string {
	switch {
	case errs > 0:
		return "error"
	case violation > 0:
		return "violation"
	case inspect > 0:
		return "inspect"
	}
	return "pass"
}
