package main

import (
	"net/http"
	"testing"
	"time"
)

// TestServeHTTPServerTimeouts pins the daemon's connection timeouts: a
// client trickling its headers or body is cut off and an idle
// keep-alive is closed, while no WriteTimeout cuts ?stream=1 responses
// or long verifications.
func TestServeHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second || hs.ReadTimeout != 60*time.Second || hs.IdleTimeout != 120*time.Second {
		t.Errorf("timeouts: read-header %v, read %v, idle %v; want 10s, 60s, 120s",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", hs.WriteTimeout)
	}
}
