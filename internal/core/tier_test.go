package core

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"harvest/internal/imaging"
	"harvest/internal/models"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/stream"
)

// TestStartTier checks the one tier assembly end to end: every replica
// healthy behind the router, the replica tenant quota mirrored at the
// router × the replica count, the stream surface present exactly when
// the stream sub-config is, and nothing listening after Close.
func TestStartTier(t *testing.T) {
	const n = 3
	for _, withStream := range []bool{false, true} {
		cfg := DeploymentConfig{
			Platform: "A100",
			Models:   []string{models.NameViTTiny},
			Preproc:  "cpu",
			// No refill to speak of: admissions are bounded by burst.
			TenantQuotas: map[string]serve.TenantQuota{"hog": {RatePerSec: 1e-6, Burst: 2}},
		}
		if withStream {
			cfg.Stream = &StreamConfig{}
		}
		tier, err := StartTier(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		client := serve.NewClient(tier.URL)
		client.MaxRetries = -1
		if err := client.WaitReady(ctx); err != nil {
			t.Fatal(err)
		}
		if got := tier.Router.Pool().HealthyCount(); got != n {
			t.Errorf("stream=%v: %d healthy replicas, want %d", withStream, got, n)
		}

		// burst 2 per replica → 2n through the router, the rest refused
		// there, in one hop.
		admitted := 0
		for i := 0; i < 2*n+4; i++ {
			_, err := client.Infer(ctx, models.NameViTTiny, serve.InferRequestJSON{Items: 1, Tenant: "hog"})
			switch {
			case err == nil:
				admitted++
			case !errors.Is(err, serve.ErrOverloaded):
				t.Fatal(err)
			}
		}
		if admitted != 2*n {
			t.Errorf("stream=%v: hog admitted %d times, want burst × replicas = %d", withStream, admitted, 2*n)
		}
		if got := tier.Router.Metrics(ctx).Router.QuotaRejects; got != 4 {
			t.Errorf("stream=%v: router refused %d requests itself, want 4", withStream, got)
		}

		for _, r := range tier.Replicas {
			if (r.Ingest != nil) != withStream {
				t.Errorf("stream=%v: replica ingest = %v", withStream, r.Ingest)
			}
			resp, err := http.Post(r.URL+"/v2/streams/cam-0", stream.FramesContentType, strings.NewReader(""))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if (resp.StatusCode == http.StatusOK) != withStream {
				t.Errorf("stream=%v: POST /v2/streams/cam-0 = %d", withStream, resp.StatusCode)
			}
			met, err := serve.NewClient(r.URL).Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := met.Extensions["stream"]; ok != withStream {
				t.Errorf("stream=%v: metrics extensions = %v", withStream, met.Extensions)
			}
		}

		urls := append(tier.ReplicaURLs, tier.URL)
		tier.Close()
		for _, u := range urls {
			if c, err := net.Dial("tcp", strings.TrimPrefix(u, "http://")); err == nil {
				c.Close()
				t.Errorf("stream=%v: %s still accepts connections after Close", withStream, u)
			}
		}
	}
}

func TestNewReplicaStreamErrors(t *testing.T) {
	for name, cfg := range map[string]DeploymentConfig{
		"no preproc":     {Platform: "A100", Models: []string{models.NameViTTiny}, Stream: &StreamConfig{}},
		"several models": {Platform: "A100", Preproc: "cpu", Stream: &StreamConfig{}},
		"unknown link": {Platform: "A100", Models: []string{models.NameViTTiny}, Preproc: "cpu",
			Stream: &StreamConfig{OffloadTo: "http://127.0.0.1:1", OffloadLink: "carrier-pigeon"}},
	} {
		if r, err := NewReplica(cfg); err == nil {
			r.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOffloadPolicyDefaults pins the one offload default: a stream
// config that names only the cloud tier offloads over 5G in 64 KiB
// uplink messages, as the binaries and loadgen's edge always did.
func TestOffloadPolicyDefaults(t *testing.T) {
	pol, err := offloadPolicy(DeploymentConfig{Stream: &StreamConfig{OffloadTo: "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Link.Name != "5G" || pol.ChunkBytes != 64<<10 {
		t.Errorf("offload over %s in %d-byte messages, want 5G in 65536", pol.Link.Name, pol.ChunkBytes)
	}
}

// TestPowerBudgetOffloads drives the power-budget offload trigger as a
// deployment wires it: an edge replica whose Stream.OffloadPowerBudgetW
// is below its platform's idle draw ships its first admitted frame to
// the cloud tier, for power. The queue threshold and the frame budget
// leave power the only signal that can ship it: without the budget the
// same frame is served on the edge.
func TestPowerBudgetOffloads(t *testing.T) {
	cloud, err := StartReplica(DeploymentConfig{Platform: "A100", Models: []string{models.NameViTTiny}, Preproc: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	frame, err := imaging.EncodeBytes(imaging.Synthesize(48, 48, imaging.KindLeaf, stats.NewRNG(1)), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		budgetW float64
		where   string
	}{{0, stream.WhereEdge}, {1, stream.WhereCloud}} {
		cfg := DeploymentConfig{
			Platform: "Jetson", Models: []string{models.NameViTTiny}, Preproc: "cpu",
			Stream: &StreamConfig{
				Budget: 10 * time.Second, OffloadTo: cloud.URL, OffloadQueueThreshold: 1000,
				OffloadPowerBudgetW: tc.budgetW, LinkTimeScale: -1,
			},
		}
		edge, err := StartReplica(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The policy newIngest builds prices an idle edge's modeled draw.
		pol, err := offloadPolicy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := pol.Decide(edge.Server, models.NameViTTiny, len(frame), 0, time.Second)
		if tc.budgetW > 0 && (!d.Cloud || d.Reason != "power") {
			t.Errorf("budget %g W: decision %+v, want cloud for power", tc.budgetW, d)
		}

		sess, err := stream.DialSession(context.Background(), nil, edge.URL, "cam-1", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Send(stream.Frame{Seq: 1, Image: frame, Format: "ppm"}); err != nil {
			t.Fatal(err)
		}
		out := <-sess.Outcomes()
		sess.CloseSend()
		if _, err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
		edge.Close()
		if out.Outcome != stream.OutcomeServed || out.Where != tc.where {
			t.Errorf("budget %g W: first frame %+v, want served on the %s", tc.budgetW, out, tc.where)
		}
	}
}
