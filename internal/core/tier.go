package core

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"time"

	"harvest/internal/energy"
	"harvest/internal/hw"
	"harvest/internal/serve"
	"harvest/internal/stream"
	"harvest/internal/transfer"
)

const (
	// defaultOffloadLink is the uplink an edge replica offloads over
	// when StreamConfig.OffloadLink is empty.
	defaultOffloadLink = "5g"
	// offloadChunkBytes is the uplink message size that per-message
	// protocol overhead is accounted in.
	offloadChunkBytes = 64 << 10
)

// StreamConfig is the camera-ingest half of a replica: long-lived
// sessions at POST /v2/streams/{camera} with in-order enforcement,
// drop-stale admission and a dedup cache; with OffloadTo set the
// replica is an edge tier that ships admitted frames to a cloud tier
// over a modeled uplink when local queue or power pressure says so.
type StreamConfig struct {
	// Model is the default model for ingest streams (default: the only
	// served model; required when the deployment serves several).
	Model string
	// Budget is the per-frame latency budget counted from frame receipt
	// (0 = the realtime SLO).
	Budget time.Duration
	// OffloadTo is the cloud tier's base URL, typically a router (empty
	// disables offload).
	OffloadTo string
	// OffloadLink names the uplink model: wifi, 5g, lte or satellite
	// (default 5g).
	OffloadLink string
	// OffloadQueueThreshold is the local queue depth at which frames
	// start offloading (default stream.DefaultQueueThreshold).
	OffloadQueueThreshold int
	// OffloadPowerBudgetW is the edge power budget in watts; modeled
	// draw above it also triggers offload (0 disables the signal).
	OffloadPowerBudgetW float64
	// LinkTimeScale is the fraction of modeled uplink latency really
	// slept (0 = full fidelity, negative = none).
	LinkTimeScale float64
}

// Replica is one deployment assembled for the wire: the server, plus —
// when cfg.Stream is set — the ingest tier in front of it.
type Replica struct {
	Server *serve.Server
	// Ingest is the streaming ingest tier (nil without cfg.Stream).
	Ingest *stream.Ingest
	// Handler is the replica's HTTP surface.
	Handler http.Handler
	// URL is the loopback base URL (StartReplica only).
	URL string

	endpoint *serve.Endpoint
}

// NewReplica builds the deployment and, with cfg.Stream, composes
// streaming ingest in front of it: camera streams at /v2/streams/,
// everything else falls through to the v2 API, and the stream counters
// export through the serve metrics surface as the "stream" extension.
// The caller serves Handler and must Close the replica.
func NewReplica(cfg DeploymentConfig) (*Replica, error) {
	srv, err := NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	r := &Replica{Server: srv, Handler: srv.Handler()}
	if cfg.Stream == nil {
		return r, nil
	}
	if r.Ingest, err = newIngest(srv, cfg); err != nil {
		srv.Close()
		return nil, err
	}
	srv.AddMetricsExtension("stream", r.Ingest.MetricsJSON, r.Ingest.WriteProm)
	mux := http.NewServeMux()
	mux.Handle("/v2/streams/", r.Ingest.Handler())
	mux.Handle("/", r.Handler)
	r.Handler = mux
	return r, nil
}

func newIngest(srv *serve.Server, cfg DeploymentConfig) (*stream.Ingest, error) {
	s := cfg.Stream
	if cfg.Preproc == "" {
		return nil, errors.New("core: streaming ingest requires Preproc: camera frames arrive as encoded images")
	}
	model := s.Model
	if model == "" {
		names := srv.Models()
		if len(names) != 1 {
			return nil, fmt.Errorf("core: Stream.Model required: serving %d models", len(names))
		}
		model = names[0]
	}
	pol, err := offloadPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return stream.NewIngest(stream.Config{
		Model:   model,
		Local:   srv,
		Budget:  s.Budget,
		Offload: pol,
		Trace:   srv.Trace(),
	})
}

// offloadPolicy is the edge's offload policy, nil without
// cfg.Stream.OffloadTo.
func offloadPolicy(cfg DeploymentConfig) (*stream.OffloadPolicy, error) {
	s := cfg.Stream
	if s.OffloadTo == "" {
		return nil, nil
	}
	link, err := transfer.ByName(cmp.Or(s.OffloadLink, defaultOffloadLink))
	if err != nil {
		return nil, err
	}
	pol := &stream.OffloadPolicy{
		Cloud:          serve.NewClient(s.OffloadTo),
		Link:           link,
		ChunkBytes:     offloadChunkBytes,
		QueueThreshold: s.OffloadQueueThreshold,
		LinkTimeScale:  s.LinkTimeScale,
	}
	if s.OffloadPowerBudgetW > 0 {
		p, err := hw.ByName(cfg.Platform)
		if err != nil {
			return nil, err
		}
		pol.EdgePowerBudgetW = s.OffloadPowerBudgetW
		pol.Power = energy.New(p)
	}
	return pol, nil
}

// StartReplica is NewReplica served on an ephemeral loopback port.
func StartReplica(cfg DeploymentConfig) (*Replica, error) {
	r, err := NewReplica(cfg)
	if err != nil {
		return nil, err
	}
	if r.endpoint, err = serve.ListenLoopback(r.Handler); err != nil {
		r.Server.Close()
		return nil, err
	}
	r.URL = r.endpoint.URL
	return r, nil
}

// Close stops the replica gracefully: in-flight HTTP requests finish,
// then the batchers drain.
func (r *Replica) Close() {
	if r.endpoint != nil {
		r.endpoint.Shutdown()
	}
	r.Server.Close()
}

// Kill tears the replica down abruptly — connections reset, nothing
// drained — simulating a crash.
func (r *Replica) Kill() {
	if r.endpoint != nil {
		r.endpoint.Close()
	}
	r.Server.Close()
}

// Tier is N identical replicas behind a health-checked router, all in
// process over loopback HTTP.
type Tier struct {
	// URL is the router's base URL; ReplicaURLs the backends'.
	URL         string
	ReplicaURLs []string
	Router      *serve.Router
	Replicas    []*Replica

	endpoint *serve.Endpoint
}

// StartTier stands up n replicas of cfg behind a router; callers must
// Close it. The router mirrors cfg's tenant quotas scaled to the tier
// aggregate (rate × n, burst × n), so an abusive tenant's rejects are
// answered in one cheap hop instead of proxying to a replica and
// spilling across the pool — reject churn at the replicas is exactly
// the interference the quota exists to prevent. Queue share stays
// replica-enforced (the router has no queue view).
func StartTier(cfg DeploymentConfig, n int) (*Tier, error) {
	t := &Tier{}
	for i := 0; i < n; i++ {
		r, err := StartReplica(cfg)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("core: replica %d: %w", i, err)
		}
		t.Replicas = append(t.Replicas, r)
		t.ReplicaURLs = append(t.ReplicaURLs, r.URL)
	}
	rc := serve.RouterConfig{
		// Refresh load snapshots well inside a short run so
		// queue-depth-aware dispatch works with live data.
		Pool: serve.PoolConfig{ProbeInterval: 20 * time.Millisecond},
	}
	if len(cfg.TenantQuotas) > 0 {
		rc.TenantQuotas = make(map[string]serve.TenantQuota, len(cfg.TenantQuotas))
		for tenant, q := range cfg.TenantQuotas {
			q.RatePerSec *= float64(n)
			q.Burst *= float64(n)
			q.MaxQueueShare = 0
			rc.TenantQuotas[tenant] = q
		}
	}
	var err error
	if t.Router, err = serve.NewRouter(t.ReplicaURLs, rc); err != nil {
		t.Close()
		return nil, err
	}
	if t.endpoint, err = serve.ListenLoopback(t.Router.Handler()); err != nil {
		t.Close()
		return nil, err
	}
	t.URL = t.endpoint.URL
	return t, nil
}

// Close tears the tier down, router first.
func (t *Tier) Close() {
	if t.endpoint != nil {
		t.endpoint.Shutdown()
	}
	if t.Router != nil {
		t.Router.Close()
	}
	for _, r := range t.Replicas {
		r.Close()
	}
}
