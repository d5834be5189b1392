package serve

import (
	"context"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// Endpoint is a handler being served over HTTP on its own listener:
// the one "put this on a socket" step that the serving binaries,
// in-process replicas, tiers, self-hosted load runs and pipeline's
// live sim-vs-real test share.
type Endpoint struct {
	// URL is the base URL the listener answers on.
	URL   string
	srv   *http.Server
	drain time.Duration
	done  chan error // Serve's return
}

// Listen serves h on addr until the returned endpoint is shut down or
// closed; Shutdown waits at most drain for in-flight requests. Header
// reads and idle keep-alives are bounded so stalled connections
// (slowloris) cannot exhaust the listener; request bodies are not,
// because infer requests legitimately queue.
func Listen(addr string, h http.Handler, drain time.Duration) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		URL: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		drain: drain,
		done:  make(chan error, 1),
	}
	go func() { e.done <- e.srv.Serve(ln) }()
	return e, nil
}

// ListenLoopback serves h on an ephemeral loopback port.
func ListenLoopback(h http.Handler) (*Endpoint, error) {
	return Listen("127.0.0.1:0", h, 10*time.Second)
}

// AwaitSignal blocks until the process receives SIGINT or SIGTERM
// (nil) or the listener fails (its error).
func (e *Endpoint) AwaitSignal() error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-e.done:
		return err
	case <-ctx.Done():
		return nil
	}
}

// Shutdown stops accepting connections and waits, at most the drain
// bound given to Listen, for in-flight requests to finish; connections
// still open then are left to the process's exit or a Close.
func (e *Endpoint) Shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), e.drain)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
}

// Close drops the listener and every open connection at once — what a
// crashed process looks like from outside.
func (e *Endpoint) Close() { _ = e.srv.Close() }
