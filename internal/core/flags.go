package core

import (
	"cmp"
	"flag"
	"fmt"

	"harvest/internal/serve"
)

// RegisterFlags declares the replica-shape flags on fs, each bound to
// one field of c and defaulting to that field's current value, so a
// binary sets its own defaults by filling c first. names picks the
// flags (empty = all of them); the offload flags bind to c.Stream,
// which must then be non-nil.
func (c *DeploymentConfig) RegisterFlags(fs *flag.FlagSet, names ...string) {
	flags := map[string]func(name string){
		"platform": func(n string) {
			fs.StringVar(&c.Platform, n, c.Platform, "replica platform model: A100, V100 or Jetson")
		},
		"timescale": func(n string) {
			fs.Float64Var(&c.TimeScale, n, c.TimeScale, "fraction of modeled latency replicas really sleep (0 = none)")
		},
		"max-queue-depth": func(n string) {
			fs.IntVar(&c.MaxQueueDepth, n, c.MaxQueueDepth, fmt.Sprintf(
				"per-model admission queue bound; a full queue sheds with HTTP 429 (0 = %d)", serve.DefaultMaxQueueDepth))
		},
		"preproc": func(n string) {
			fs.StringVar(&c.Preproc, n, c.Preproc,
				"accept encoded images (images_b64) on /v2/infer, preprocessed by this engine: cpu (PyTorch-style) or cv2; empty disables")
		},
		"tenant-quantum": func(n string) {
			fs.IntVar(&c.TenantQuantum, n, c.TenantQuantum, fmt.Sprintf(
				"deficit-round-robin quantum in request-items for per-tenant fair scheduling (0 = %d)", serve.DefaultTenantQuantum))
		},
		"anti-starve-every": func(n string) {
			fs.IntVar(&c.AntiStarveEvery, n, c.AntiStarveEvery, fmt.Sprintf(
				"guarantee lower-priority lanes one dispatch every N polls under saturating higher-priority load (0 = %d, negative disables)",
				serve.DefaultAntiStarveEvery))
		},
		"tenant-quota": func(n string) {
			fs.Var((*serve.TenantQuotaFlag)(&c.TenantQuotas), n,
				"per-tenant admission quota, repeatable: tenant:rate=R[,burst=B][,share=S] (\"*\" = wildcard for unlisted tenants); at a router, R and B are fleet-aggregate items/s and share is not enforced")
		},
		"offload-link": func(n string) {
			fs.StringVar(&c.Stream.OffloadLink, n, cmp.Or(c.Stream.OffloadLink, defaultOffloadLink),
				"edge-to-cloud uplink model for offloaded frames: wifi, 5g, lte or satellite")
		},
		"offload-queue-threshold": func(n string) {
			fs.IntVar(&c.Stream.OffloadQueueThreshold, n, c.Stream.OffloadQueueThreshold,
				"local queue depth at which ingest frames start offloading to the cloud tier")
		},
	}
	if len(names) == 0 {
		for n := range flags {
			names = append(names, n)
		}
	}
	for _, n := range names {
		flags[n](n)
	}
}
