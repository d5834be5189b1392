package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"harvest/internal/core"
	"harvest/internal/engine"
	"harvest/internal/serve"
	"harvest/internal/stream"
	"harvest/internal/transfer"
)

// tier is a running system under test: in-process servers on real
// loopback sockets, assembled through the repo's public constructors.
type tier struct {
	// client is the entry point the workload's callers use (router, or
	// the single replica when there is no router).
	client *serve.Client
	// url is the base URL cameras dial (the edge replica).
	url      string
	router   *serve.Router
	replicas []replica
	edge     *replica
	stops    []func()
}

// replica is one serving process stand-in with a client for its
// metric surface.
type replica struct {
	name   string
	srv    *serve.Server
	client *serve.Client
}

// Close tears the tier down front to back: listeners, router, servers.
func (t *tier) Close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// listen serves h on an ephemeral loopback port.
func (t *tier) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	// Close, not Shutdown: every caller has its answer by the time a
	// tier is torn down, and Shutdown would wait five seconds for the
	// connections a transport dialled ahead and never used.
	t.stops = append(t.stops, func() {
		_ = srv.Close()
		<-served
	})
	return "http://" + ln.Addr().String(), nil
}

// newClient is the workload's caller: retries off, so a 429 or a
// transport error is counted, not hidden.
func newClient(url string) *serve.Client {
	c := serve.NewClient(url)
	c.MaxRetries = -1
	return c
}

// addReplica builds one replica through core.NewDeployment. With a
// tracer the same configuration is registered again on a fresh server
// with span-recording wrappers around its preprocessor and its real
// backend; retrace checks that nothing else changed.
func (t *tier) addReplica(name string, cfg core.DeploymentConfig, tr *tracer) (*replica, error) {
	srv, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if tr != nil {
		if srv, err = retrace(srv, name, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	t.stops = append(t.stops, srv.Close)
	return &replica{name: name, srv: srv}, nil
}

// serveReplica puts the replica's API on a socket.
func (t *tier) serveReplica(r *replica, h http.Handler, tr *tracer) (string, error) {
	url, err := t.listen(tr.handler(spanReplicaHandle, r.name, h))
	if err != nil {
		return "", err
	}
	r.client = newClient(url)
	return url, nil
}

// retrace re-registers every model of srv on a new server with the
// tracer's wrappers in place, closes srv, and verifies that the traced
// configuration equals the untraced one on every field that shapes
// behaviour.
func retrace(srv *serve.Server, tierName string, tr *tracer) (*serve.Server, error) {
	traced := serve.NewServer()
	traced.SetTrace(srv.Trace())
	for _, name := range srv.Models() {
		want, err := srv.ModelConfigFor(name)
		if err != nil {
			return nil, err
		}
		mc := want
		if mc.Preproc != nil {
			mc.Preproc = spanPreproc{Engine: mc.Preproc, t: tr, tier: tierName}
		}
		if want.Engine.Real != nil {
			eng := *want.Engine
			eng.Real = spanForwarder{Forwarder: eng.Real, t: tr, tier: tierName}
			mc.Engine = &eng
		}
		if err := traced.Register(mc); err != nil {
			return nil, err
		}
		got, err := traced.ModelConfigFor(name)
		if err != nil {
			return nil, err
		}
		if d := configDiff(want, got); d != "" {
			return nil, fmt.Errorf("traced tier differs from untraced on %s", d)
		}
	}
	srv.Close()
	return traced, nil
}

// configDiff names the first pinned ModelConfig field on which the two
// configurations disagree, or returns "".
func configDiff(a, b serve.ModelConfig) string {
	pre := func(c serve.ModelConfig) string {
		if c.Preproc == nil {
			return ""
		}
		return fmt.Sprintf("%s/%d", c.Preproc.Name(), c.Preproc.OutRes())
	}
	eng := func(e *engine.Engine) string {
		return fmt.Sprintf("%s@%s real=%t", e.Entry.Spec.Name, e.Platform.Name, e.Real != nil)
	}
	checks := []struct {
		field string
		same  bool
	}{
		{"Name", a.Name == b.Name},
		{"Engine", eng(a.Engine) == eng(b.Engine)},
		{"MaxBatch", a.MaxBatch == b.MaxBatch},
		{"QueueDelay", a.QueueDelay == b.QueueDelay},
		{"Instances", a.Instances == b.Instances},
		{"InputSize", a.InputSize == b.InputSize},
		{"TimeScale", a.TimeScale == b.TimeScale},
		{"DrainTimeout", a.DrainTimeout == b.DrainTimeout},
		{"MaxQueueDepth", a.MaxQueueDepth == b.MaxQueueDepth},
		{"RealtimeBudget", a.RealtimeBudget == b.RealtimeBudget},
		{"Trace", a.Trace == b.Trace},
		{"Preproc", pre(a) == pre(b)},
		{"MaxImageBytes", a.MaxImageBytes == b.MaxImageBytes},
		{"TenantQuotas", len(a.TenantQuotas) == len(b.TenantQuotas)},
		{"TenantQuantum", a.TenantQuantum == b.TenantQuantum},
		{"AntiStarveEvery", a.AntiStarveEvery == b.AntiStarveEvery},
	}
	for _, c := range checks {
		if !c.same {
			return c.field
		}
	}
	return ""
}

// routedTier is n replicas behind a router: the online tier, and the
// cloud half of the stream tier.
func (t *tier) addRouted(prefix string, n int, cfg core.DeploymentConfig, tr *tracer) (string, error) {
	var urls []string
	for i := 0; i < n; i++ {
		r, err := t.addReplica(fmt.Sprintf("%s%d", prefix, i), cfg, tr)
		if err != nil {
			return "", err
		}
		url, err := t.serveReplica(r, r.srv.Handler(), tr)
		if err != nil {
			return "", err
		}
		t.replicas = append(t.replicas, *r)
		urls = append(urls, url)
	}
	// Pool settings stay at the repo's defaults: what an operator who
	// starts harvest-router gets.
	router, err := serve.NewRouter(urls, serve.RouterConfig{})
	if err != nil {
		return "", err
	}
	t.stops = append(t.stops, router.Close)
	t.router = router
	return t.listen(tr.handler(spanRouterHandle, prefix+"router", router.Handler()))
}

// buildOnline is the online tier: callers → router → 2 A100 replicas.
func buildOnline(cfg core.DeploymentConfig, tr *tracer) (*tier, error) {
	t := &tier{}
	url, err := t.addRouted("replica", 2, cfg, tr)
	if err != nil {
		t.Close()
		return nil, err
	}
	t.client = newClient(url)
	return t, nil
}

// buildSingle is the offline tier: the caller talks to one replica.
func buildSingle(cfg core.DeploymentConfig, tr *tracer) (*tier, error) {
	t := &tier{}
	r, err := t.addReplica("replica0", cfg, tr)
	if err == nil {
		_, err = t.serveReplica(r, r.srv.Handler(), tr)
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	t.replicas = append(t.replicas, *r)
	t.client = r.client
	return t, nil
}

// Stream tier constants, frozen here so that a run is comparable with
// every other run of this benchmark.
const (
	streamModel = "ViT_Base"
	// streamServerBudget is the ingest tier's per-frame budget. It is
	// loose on purpose: the drop-stale gate stays quiet even when the
	// shared host stalls for a few hundred milliseconds, so a stall costs
	// late frames, which the client scores against the tighter sloLimit,
	// and not failed ones.
	streamServerBudget   = time.Second
	streamQueueThreshold = 2
	streamChunkBytes     = 64 << 10
)

// buildStream is the compute continuum: cameras → edge Jetson replica
// with stream ingest → (LTE uplink) → cloud router → 2 A100 replicas.
func buildStream(tr *tracer) (*tier, error) {
	t := &tier{}
	ok := false
	defer func() {
		if !ok {
			t.Close()
		}
	}()
	cloudURL, err := t.addRouted("cloud", 2, core.DeploymentConfig{
		Platform: "A100", Models: []string{streamModel}, TimeScale: 0.05, Preproc: "cpu",
	}, tr)
	if err != nil {
		return nil, err
	}
	edge, err := t.addReplica("edge", core.DeploymentConfig{
		Platform: "Jetson", Models: []string{streamModel}, TimeScale: 1, Preproc: "cpu",
	}, tr)
	if err != nil {
		return nil, err
	}
	link, err := transfer.ByName("lte")
	if err != nil {
		return nil, err
	}
	cloud := serve.NewClient(cloudURL)
	if tr != nil {
		cloud.HTTP = &http.Client{Transport: spanTransport{t: tr, name: spanCloudTrip, base: serve.NewTransport()}}
	}
	var local stream.Backend = edge.srv
	if tr != nil {
		local = spanBackend{Backend: edge.srv, t: tr, tier: edge.name}
	}
	ing, err := stream.NewIngest(stream.Config{
		Model:  streamModel,
		Local:  local,
		Budget: streamServerBudget,
		Offload: &stream.OffloadPolicy{
			Cloud:          cloud,
			Link:           link,
			ChunkBytes:     streamChunkBytes,
			QueueThreshold: streamQueueThreshold,
		},
		Trace: edge.srv.Trace(),
	})
	if err != nil {
		return nil, err
	}
	// Same wiring as harvest-serve -stream: streams beside the v2 API,
	// stream counters on the serve metrics surface.
	edge.srv.AddMetricsExtension("stream", ing.MetricsJSON, ing.WriteProm)
	mux := http.NewServeMux()
	mux.Handle("/v2/streams/", tr.handler(spanIngestHandle, edge.name, ing.Handler()))
	mux.Handle("/", edge.srv.Handler())
	t.url, err = t.serveReplica(edge, mux, nil)
	if err != nil {
		return nil, err
	}
	t.edge = edge
	ok = true
	return t, nil
}
