package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"harvest/internal/serve"
)

// agentHTTP carries every agent's control-plane calls.
var agentHTTP = &http.Client{Timeout: 5 * time.Second}

// Agent is a replica's client side of the lease protocol: between
// Start and Stop it registers the replica with the fleet control
// plane, renews the lease at TTL/3, and deregisters with drain on
// Stop. harvest-serve runs one when started with -fleet; the
// LocalProvisioner runs one per in-process replica it spawns.
type Agent struct {
	// FleetURL is the control plane's base URL.
	FleetURL string
	// Name is the replica's lease name (must be fleet-unique).
	Name string
	// URL is the replica's advertised base URL — where the router will
	// dispatch to.
	URL string
	// Platform is the replica's hw platform key (capacity-oracle
	// metadata).
	Platform string
	// TTL is the requested lease length (0 = the registry default).
	TTL time.Duration
	// Logf, when non-nil, receives agent lifecycle messages.
	Logf func(format string, args ...any)

	aborted atomic.Bool
	cancel  context.CancelFunc
	done    chan error // run's return
}

// Start runs the agent in the background until Stop.
func (a *Agent) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	a.cancel, a.done = cancel, make(chan error, 1)
	go func() { a.done <- a.run(ctx) }()
}

// Stop retires the lease — a drain-aware deregistration, unless Abort
// came first — and returns once the agent has exited, with the
// deregistration's error.
func (a *Agent) Stop() error {
	a.cancel()
	err := <-a.done
	if errors.Is(err, context.Canceled) {
		return nil // stopped before the first registration landed, or aborted
	}
	return err
}

// Abort makes the next Stop skip the deregistration — the
// crash-simulation path: renewals just stop and the lease is left to
// expire by TTL.
func (a *Agent) Abort() { a.aborted.Store(true) }

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.FleetURL+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := agentHTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("fleet: %s: HTTP %d: %s", path, resp.StatusCode, e.Error)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// register sends one registration/renewal and returns the granted TTL.
// Cancelling ctx does not cut it short (agentHTTP's timeout bounds it):
// a grant whose answer the agent abandoned would be a lease that no
// deregistration follows, left to expire, or a draining one readmitted.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	var resp RegisterResponseJSON
	err := a.post(context.WithoutCancel(ctx), "/v2/fleet/register", RegisterRequestJSON{
		Name:     a.Name,
		URL:      a.URL,
		Platform: a.Platform,
		TTLMs:    float64(a.TTL) / float64(time.Millisecond),
	}, &resp)
	if err != nil {
		return 0, err
	}
	return serve.MsDuration(resp.TTLMs), nil
}

// run registers the replica (retrying until the control plane
// answers), renews the lease at a third of its TTL, and deregisters
// with drain when ctx is cancelled. It returns the shutdown
// deregistration error, nil on a clean retirement.
func (a *Agent) run(ctx context.Context) error {
	if a.FleetURL == "" || a.Name == "" || a.URL == "" {
		return fmt.Errorf("fleet: agent needs FleetURL, Name and URL")
	}
	backoff := 50 * time.Millisecond
	var ttl time.Duration
	for {
		var err error
		if ttl, err = a.register(ctx); err == nil {
			break
		}
		a.logf("fleet agent %s: register: %v (retrying in %v)", a.Name, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 2*time.Second)
	}
	a.logf("fleet agent %s: registered %s (lease %v)", a.Name, a.URL, ttl)
	ticker := time.NewTicker(max(ttl/3, 50*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			if a.aborted.Load() {
				return ctx.Err() // crashed, not retired: leave the lease to expire
			}
			// Retire gracefully: a drain-aware deregistration on a
			// fresh context (the run context is already dead).
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := a.post(dctx, "/v2/fleet/deregister", DeregisterRequestJSON{Name: a.Name, Drain: true}, nil)
			if err != nil {
				a.logf("fleet agent %s: deregister: %v", a.Name, err)
			} else {
				a.logf("fleet agent %s: deregistered (draining)", a.Name)
			}
			return err
		case <-ticker.C:
			if granted, err := a.register(ctx); err != nil {
				a.logf("fleet agent %s: renew: %v", a.Name, err)
			} else if granted != ttl && granted > 0 {
				ttl = granted
				ticker.Reset(max(granted/3, 50*time.Millisecond))
			}
		}
	}
}
