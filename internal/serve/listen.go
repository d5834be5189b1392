package serve

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Endpoint is a handler being served over HTTP on its own loopback
// listener: the one "put this on a socket" step that in-process
// replicas, tiers, self-hosted load runs and pipeline's live
// sim-vs-real test share.
type Endpoint struct {
	// URL is the base URL the listener answers on.
	URL string
	srv *http.Server
}

// ListenLoopback serves h on an ephemeral loopback port until the
// returned endpoint is shut down or closed.
func ListenLoopback(h http.Handler) (*Endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		URL: "http://" + ln.Addr().String(),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
	}
	// Serve returns once Shutdown or Close runs.
	go func() { _ = e.srv.Serve(ln) }()
	return e, nil
}

// Shutdown stops accepting connections and waits (bounded) for
// in-flight requests to finish.
func (e *Endpoint) Shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
}

// Close drops the listener and every open connection at once — what a
// crashed process looks like from outside.
func (e *Endpoint) Close() { _ = e.srv.Close() }
