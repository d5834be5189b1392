package loadgen

import (
	"context"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleet"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/serve"
)

// startLocalFleet serves a local-mode control plane on a loopback
// endpoint, as harvest-loadgen -fleet-max does, and returns once its
// floor replicas take traffic. Probes run every 20 ms, so a crashed
// replica leaves the rotation quickly.
func startLocalFleet(t *testing.T, cfg fleet.ControlPlaneConfig) (*fleet.ControlPlane, string) {
	t.Helper()
	cfg.Local = true
	cfg.Router.Pool.ProbeInterval = 20 * time.Millisecond
	cp := fleet.NewControlPlane(cfg)
	ep, err := serve.ListenLoopback(cp.Handler())
	if err != nil {
		cp.Close()
		t.Fatal(err)
	}
	// The control plane closes first: its replicas deregister over HTTP.
	t.Cleanup(func() { cp.Close(); ep.Shutdown() })
	if err := cp.Start(context.Background(), ep.URL); err != nil {
		t.Fatal(err)
	}
	return cp, ep.URL
}

// TestManagedFleetStepAndChurn is the control-plane acceptance run in
// miniature: a seeded open-loop ramp with a load step drives an
// autoscaled fleet; the controller must scale up off the sim oracle,
// and a replica killed mid-run (no deregistration — its lease expires)
// must cause zero failed admitted requests. 429 sheds and 504
// deadline evictions are designed overload responses, not failures.
func TestManagedFleetStepAndChurn(t *testing.T) {
	cp, url := startLocalFleet(t, fleet.ControlPlaneConfig{
		Controller: fleet.ControllerConfig{
			Model:    models.NameViTBase,
			Min:      1,
			Max:      3,
			Interval: 250 * time.Millisecond,
			SLO:      150 * time.Millisecond,
			Logf:     t.Logf,
		},
		LeaseTTL: 500 * time.Millisecond,
		Replica:  core.DeploymentConfig{Platform: hw.KeyJetson, TimeScale: 1},
	})

	// Kill a replica once the autoscaler has grown the fleet past the
	// floor: the crash path (connection resets + TTL expiry), not a
	// drain.
	killed := make(chan string, 1)
	killCtx, cancelKill := context.WithCancel(context.Background())
	defer cancelKill()
	go func() {
		for killCtx.Err() == nil {
			if len(cp.Registry.Leases()) >= 2 {
				// Let the newcomer take traffic before the crash.
				time.Sleep(300 * time.Millisecond)
				if name, err := cp.Provisioner.Kill(); err == nil {
					killed <- name
				}
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// 80 rps fits one Jetson ViT_Base replica; the 3× step to 240 rps
	// does not (per-replica knee ≈ 187 img/s), forcing a scale-up.
	report, err := Run(context.Background(), Config{
		Target:   url,
		Model:    models.NameViTBase,
		Name:     "managed_test",
		Seed:     7,
		Duration: 6 * time.Second,
		Warmup:   500 * time.Millisecond,
		Shape:    ShapeStep,
		PeakMult: 3,
		StepAt:   1500 * time.Millisecond,
		Timeline: true,
		Classes:  []ClassConfig{{Class: "online", Rate: 80, Items: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	report.Fleet = &FleetReport{Decisions: cp.Controller.Decisions(), Events: cp.Registry.Events()}

	tot := report.Total
	if tot.Server5xx != 0 || tot.OtherHTTP != 0 || tot.Timeouts != 0 || tot.Transport != 0 {
		t.Fatalf("admitted requests failed under churn: 5xx=%d other=%d timeouts=%d transport=%d",
			tot.Server5xx, tot.OtherHTTP, tot.Timeouts, tot.Transport)
	}
	if tot.Completed == 0 {
		t.Fatal("no requests completed")
	}

	scaledUp := false
	for _, d := range report.Fleet.Decisions {
		if d.To > d.From {
			scaledUp = true
		}
	}
	if !scaledUp {
		t.Fatalf("autoscaler never scaled up across the load step; decisions: %+v", report.Fleet.Decisions)
	}

	select {
	case name := <-killed:
		expired := false
		for _, e := range report.Fleet.Events {
			if e.Kind == fleet.EventExpire && e.Name == name {
				expired = true
			}
		}
		if !expired {
			// The kill may land so late its expiry postdates the run
			// snapshot; give the sweeper a moment and re-check.
			time.Sleep(time.Second)
			for _, e := range cp.Registry.Events() {
				if e.Kind == fleet.EventExpire && e.Name == name {
					expired = true
				}
			}
		}
		if !expired {
			t.Fatalf("killed replica %s never expired: %+v", name, cp.Registry.Events())
		}
	default:
		t.Fatal("fleet never reached 2 replicas; nothing was killed")
	}

	if len(report.Classes) != 1 || len(report.Classes[0].Timeline) == 0 {
		t.Fatal("timeline missing from the class report")
	}
	var offered int64
	for _, b := range report.Classes[0].Timeline {
		offered += b.Offered
	}
	if offered == 0 {
		t.Fatal("timeline recorded no offered requests")
	}
}

// TestManagedFleetReplicaShape: managed replicas get the whole
// deployment config, not a subset of it. An encoded-image class needs
// Preproc on the replicas (without it every request is a 400) and a
// quota'd tenant must see its 429s.
func TestManagedFleetReplicaShape(t *testing.T) {
	_, url := startLocalFleet(t, fleet.ControlPlaneConfig{
		Controller: fleet.ControllerConfig{
			Model: models.NameViTTiny,
			Max:   2,
			SLO:   100 * time.Millisecond,
		},
		Replica: core.DeploymentConfig{
			Platform:     hw.KeyA100,
			TimeScale:    0.02,
			Preproc:      "cpu",
			TenantQuotas: map[string]serve.TenantQuota{"hog": {RatePerSec: 1, Burst: 1}},
		},
	})
	report, err := Run(context.Background(), Config{
		Target:   url,
		Model:    models.NameViTTiny,
		Name:     "managed_shape",
		Duration: time.Second,
		Classes: []ClassConfig{
			{Class: "online", Rate: 20, Items: 1, ImageSide: 96},
			{Class: "online", Rate: 20, Items: 1, Tenant: "hog"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	img, hog := report.Classes[0], report.Classes[1]
	if img.Completed == 0 || img.OtherHTTP != 0 {
		t.Errorf("image class: completed=%d other_http=%d, want every request served (Preproc reached the replicas)",
			img.Completed, img.OtherHTTP)
	}
	if hog.Rejected429 == 0 {
		t.Errorf("quota'd tenant saw no 429s of %d offered: TenantQuotas did not reach the replicas", hog.Offered)
	}
}
