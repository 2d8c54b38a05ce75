package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerDeadlines pins the daemon's connection deadlines: with
// ReadTimeout and IdleTimeout zero Go never closes an idle keep-alive
// connection or a client that trickles its body, and with WriteTimeout
// zero never one that stops reading.
func TestHTTPServerDeadlines(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for _, d := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, readHeaderTimeout},
		{"ReadTimeout", srv.ReadTimeout, readTimeout},
		{"WriteTimeout", srv.WriteTimeout, writeTimeout},
		{"IdleTimeout", srv.IdleTimeout, idleTimeout},
	} {
		if d.got <= 0 || d.got != d.want {
			t.Errorf("%s = %v, want %v (> 0)", d.name, d.got, d.want)
		}
	}
	if srv.ReadTimeout < srv.ReadHeaderTimeout {
		t.Errorf("ReadTimeout %v is shorter than ReadHeaderTimeout %v", srv.ReadTimeout, srv.ReadHeaderTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Errorf("server lost its address or handler: %q, %v", srv.Addr, srv.Handler)
	}
}
