package serve_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"harvest/internal/imaging"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/stream"
)

var (
	promLabel  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{` + promLabel + `(?:,` + promLabel + `)*\})? (\S+)$`)
)

// lintProm checks a Prometheus text exposition body (format 0.0.4):
// every sample line is `name[{k="v",...}] value`, every family is
// introduced by exactly one `# HELP` then one `# TYPE` line before its
// samples, and no family is declared twice. It returns one message per
// violation.
func lintProm(body string) []string {
	var problems []string
	bad := func(n int, line, why string) {
		problems = append(problems, fmt.Sprintf("line %d: %s: %q", n+1, why, line))
	}
	helped := map[string]bool{}
	types := map[string]string{}
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "# HELP "):
			if len(f) < 4 || helped[f[2]] {
				bad(n, line, "HELP without text, or repeated")
			} else {
				helped[f[2]] = true
			}
		case strings.HasPrefix(line, "# TYPE "):
			switch {
			case len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram"):
				bad(n, line, "malformed TYPE")
			case !helped[f[2]] || types[f[2]] != "":
				bad(n, line, "TYPE repeated or not preceded by its HELP")
			default:
				types[f[2]] = f[3]
			}
		default:
			m := promSample.FindStringSubmatch(line)
			if m == nil {
				bad(n, line, "malformed sample")
				continue
			}
			if _, err := strconv.ParseFloat(m[2], 64); err != nil {
				bad(n, line, "sample value is not a float")
			}
			family := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(family, suffix); types[base] == "histogram" {
					family = base
				}
			}
			if types[family] == "" {
				bad(n, line, "sample of an undeclared family")
			}
		}
	}
	return problems
}

func TestLintPromRejectsBrokenExposition(t *testing.T) {
	for name, body := range map[string]string{
		"label without braces":  "# HELP a_total x\n# TYPE a_total counter\na_totaltenant=\"farm-a\" 1\n",
		"family declared twice": "# HELP a_total x\n# TYPE a_total counter\na_total 1\n# HELP a_total x\n# TYPE a_total counter\n",
		"sample before TYPE":    "a_total 1\n# HELP a_total x\n# TYPE a_total counter\n",
		"TYPE without HELP":     "# TYPE a_total counter\na_total 1\n",
		"non-numeric value":     "# HELP a_total x\n# TYPE a_total counter\na_total one\n",
	} {
		if len(lintProm(body)) == 0 {
			t.Errorf("%s: lint passed %q", name, body)
		}
	}
	ok := "# HELP h_seconds x\n# TYPE h_seconds histogram\nh_seconds_bucket{m=\"a\\\"b\",le=\"+Inf\"} 3\nh_seconds_sum{m=\"a\\\"b\"} 1e+06\nh_seconds_count{m=\"a\\\"b\"} 3\n"
	if p := lintProm(ok); len(p) != 0 {
		t.Errorf("lint rejected a valid body: %v", p)
	}
}

// newStreamReplica is the traffic fixture with the streaming ingest
// tier attached as the "stream" metrics extension, after one tenant's
// camera has streamed a frame through it.
func newStreamReplica(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, hs := serve.NewTrafficReplica(t)
	ing, err := stream.NewIngest(stream.Config{Model: "imagenet", Local: srv, Budget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv.AddMetricsExtension("stream", ing.MetricsJSON, ing.WriteProm)
	sess, err := ing.Open("cam-1", "", "farm-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := imaging.EncodeBytes(imaging.Synthesize(48, 48, imaging.KindRows, stats.NewRNG(7)), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan stream.Outcome, 1)
	sess.HandleFrame(context.Background(), stream.Frame{Seq: 1, Image: frame, Format: "ppm"}, func(o stream.Outcome) { done <- o })
	if o := <-done; o.Outcome != stream.OutcomeServed {
		t.Fatalf("fixture frame: %+v", o)
	}
	sess.Close()
	return srv, hs
}

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	body, _ := io.ReadAll(rec.Body)
	return string(body)
}

func hasLine(body, line string) bool { return strings.Contains("\n"+body, "\n"+line+"\n") }

// TestExpositionIsValid lints the whole /metrics body of a replica
// with tenants, classes, image traffic and the stream extension, and
// of a router over two such replicas. The router must expose the same
// per-model families its replicas do, merged across the fleet.
func TestExpositionIsValid(t *testing.T) {
	a, hsA := newStreamReplica(t)
	_, hsB := newStreamReplica(t)
	replica := scrape(t, a.Handler())
	for _, p := range lintProm(replica) {
		t.Errorf("replica /metrics: %s", p)
	}
	for _, want := range []string{
		`harvest_stream_tenant_frames_total{tenant="farm-a"} 1`,
		`harvest_stream_frames_total 1`,
		`harvest_tenant_shed_total{model="imagenet",tenant="hog"} 1`,
		`harvest_preprocess_latency_seconds_count{model="imagenet"} 2`,
	} {
		if !hasLine(replica, want) {
			t.Errorf("replica /metrics missing %q", want)
		}
	}

	router, err := serve.NewRouter([]string{hsA.URL, hsB.URL}, serve.RouterConfig{
		Pool:         serve.FastPool(),
		TenantQuotas: map[string]serve.TenantQuota{"hog": {RatePerSec: 0.001, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	serve.DriveTraffic(t, router.Handler(), http.StatusTooManyRequests)
	fleet := scrape(t, router.Handler())
	for _, p := range lintProm(fleet) {
		t.Errorf("router /metrics: %s", p)
	}
	for _, want := range []string{
		"# TYPE harvest_requests_total counter",
		`harvest_requests_total{model="imagenet"} 16`,
		"# TYPE harvest_queue_depth gauge",
		`harvest_queue_depth{model="imagenet"} 0`,
		`harvest_class_queue_latency_seconds_count{model="imagenet",class="realtime"} 5`,
		`harvest_tenant_requests_total{model="imagenet",tenant="farm-a"} 8`,
		`harvest_tenant_shed_total{model="imagenet",tenant="hog"} 4`,
		"# TYPE harvest_tenant_queue_latency_seconds histogram",
		`harvest_router_tenant_shed_total{tenant="hog"} 1`,
		"# TYPE harvest_replica_healthy gauge",
	} {
		if !hasLine(fleet, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}
