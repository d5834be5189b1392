package loadgen

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"harvest/internal/core"
)

func TestParseClassSpec(t *testing.T) {
	cc, err := ParseClassSpec("realtime:rate=60,items=2,deadline=16.7ms")
	if err != nil {
		t.Fatal(err)
	}
	if cc.Class != "realtime" || cc.Rate != 60 || cc.Items != 2 || cc.DeadlineMs != 16.7 {
		t.Errorf("parsed %+v", cc)
	}
	if !cc.Open() {
		t.Error("rate-driven class should be open loop")
	}
	cc, err = ParseClassSpec("offline:workers=3,items=8,slo=2s,image=64")
	if err != nil {
		t.Fatal(err)
	}
	if cc.Class != "offline" || cc.Workers != 3 || cc.Items != 8 || cc.SLOMs != 2000 || cc.ImageSide != 64 {
		t.Errorf("parsed %+v", cc)
	}
	if cc.Open() {
		t.Error("worker-driven class should be closed loop")
	}
	for _, bad := range []string{
		"",                          // no class
		"online",                    // neither rate nor workers
		"online:rate=5,workers=2",   // both disciplines
		"online:rate=banana",        // bad number
		"online:rate=5,turbo=9",     // unknown key
		"online:rate=5,deadline=xx", // bad duration
		"online:rate",               // not key=value
	} {
		if _, err := ParseClassSpec(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{
		Target:   "http://x",
		Model:    "m",
		Duration: 10 * time.Second,
		Classes: []ClassConfig{
			{Class: "realtime", Rate: 10, Items: 1},
			{Class: "online", Rate: 10, Items: 1, DeadlineMs: 250},
			{Class: "offline", Workers: 1, Items: 4},
		},
	}
	got, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.Shape != ShapeConstant || got.PeakMult != 4 || got.MaxInflight != 4096 {
		t.Errorf("defaults %+v", got)
	}
	if got.Period != 2*time.Second || got.BurstDur != 400*time.Millisecond {
		t.Errorf("period defaults %v/%v", got.Period, got.BurstDur)
	}
	// SLO fallbacks: class default, explicit deadline, class default.
	if s := got.Classes[0].SLOMs; s != 16.7 {
		t.Errorf("realtime SLO %v, want 16.7", s)
	}
	if s := got.Classes[1].SLOMs; s != 250 {
		t.Errorf("online SLO %v, want deadline 250", s)
	}
	if s := got.Classes[2].SLOMs; s != 1000 {
		t.Errorf("offline SLO %v, want 1000", s)
	}
	if got.DurationSec != 10 || got.WarmupSec != 0 {
		t.Errorf("echoed seconds %v/%v", got.DurationSec, got.WarmupSec)
	}

	for _, bad := range []Config{
		{Model: "m", Duration: time.Second, Classes: cfg.Classes},                                   // no target
		{Target: "x", Duration: time.Second, Classes: cfg.Classes},                                  // no model
		{Target: "x", Model: "m", Classes: cfg.Classes},                                             // no duration
		{Target: "x", Model: "m", Duration: time.Second},                                            // no classes
		{Target: "x", Model: "m", Duration: time.Second, Warmup: time.Second, Classes: cfg.Classes}, // warmup >= duration
		{Target: "x", Model: "m", Duration: time.Second, Shape: "sawtooth", Classes: cfg.Classes},   // bad shape
	} {
		if _, err := bad.withDefaults(); err == nil {
			t.Errorf("config %+v validated, want error", bad)
		}
	}
}

// TestScheduleReproducible pins the acceptance criterion: identical
// seed + config reproduce identical arrival schedules, across every
// shape; a different seed diverges.
func TestScheduleReproducible(t *testing.T) {
	for _, shape := range []Shape{ShapeConstant, ShapeDiurnal, ShapeBurst, ShapeRamp} {
		cfg := Config{
			Target: "http://x", Model: "m", Seed: 99,
			Duration: 20 * time.Second, Shape: shape,
			Classes: []ClassConfig{
				{Class: "realtime", Rate: 40, Items: 1},
				{Class: "offline", Workers: 2, Items: 8},
				{Class: "online", Rate: 15, Items: 2},
			},
		}
		a, err := cfg.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cfg.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 3 || len(a[0]) == 0 || len(a[2]) == 0 {
			t.Fatalf("%s: schedule shape %d/%d/%d", shape, len(a[0]), len(a[1]), len(a[2]))
		}
		if a[1] != nil {
			t.Errorf("%s: closed-loop class has a schedule", shape)
		}
		for ci := range a {
			if len(a[ci]) != len(b[ci]) {
				t.Fatalf("%s: class %d lengths differ: %d vs %d", shape, ci, len(a[ci]), len(b[ci]))
			}
			for i := range a[ci] {
				if a[ci][i] != b[ci][i] {
					t.Fatalf("%s: class %d arrival %d differs: %+v vs %+v", shape, ci, i, a[ci][i], b[ci][i])
				}
			}
		}
		cfg.Seed = 100
		c, err := cfg.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if len(c[0]) == len(a[0]) && len(c[0]) > 0 && c[0][0] == a[0][0] {
			t.Errorf("%s: different seeds produced the same first arrival", shape)
		}
	}
}

// TestRunAgainstSelfHostedFleet is the end-to-end smoke: a 1-replica
// self-hosted fleet driven with a mixed open+closed mix, report
// written and parsed back as a BENCH artifact.
func TestRunAgainstSelfHostedFleet(t *testing.T) {
	fleet, err := core.StartTier(core.DeploymentConfig{Platform: "A100", Models: []string{"ViT_Tiny"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cfg := Config{
		Target:   fleet.URL,
		Model:    "ViT_Tiny",
		Name:     "smoke",
		Seed:     7,
		Duration: 900 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
		Classes: []ClassConfig{
			{Class: "online", Rate: 120, Items: 1},
			{Class: "offline", Workers: 1, Items: 4},
		},
	}
	report, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Classes) != 2 {
		t.Fatalf("%d class reports, want 2", len(report.Classes))
	}
	on, off := report.Classes[0], report.Classes[1]
	if on.Mode != "open" || off.Mode != "closed" || report.Total.Mode != "mixed" {
		t.Errorf("modes %s/%s/%s", on.Mode, off.Mode, report.Total.Mode)
	}
	if on.Offered == 0 || on.Completed == 0 {
		t.Errorf("open class offered=%d completed=%d, want > 0", on.Offered, on.Completed)
	}
	if off.Completed == 0 {
		t.Errorf("closed class completed=%d, want > 0", off.Completed)
	}
	if report.Total.Completed != on.Completed+off.Completed {
		t.Errorf("total completed %d != %d + %d", report.Total.Completed, on.Completed, off.Completed)
	}
	if on.ServiceMs.Count == 0 || on.IntendedStartMs.Count == 0 {
		t.Error("open class has empty latency distributions")
	}
	if on.ThroughputRPS <= 0 || report.WindowSec <= 0 {
		t.Errorf("throughput %v over window %v", on.ThroughputRPS, report.WindowSec)
	}
	if report.Config.Seed != 7 || report.Config.DurationSec == 0 || len(report.Config.Classes) != 2 {
		t.Errorf("config echo %+v", report.Config)
	}

	path := filepath.Join(t.TempDir(), report.DefaultPath())
	if err := report.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("BENCH artifact does not parse: %v", err)
	}
	if back.Name != "smoke" || back.Total.Completed != report.Total.Completed {
		t.Errorf("round-tripped report %+v", back.Total)
	}
	if report.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestRunEncodedImages drives the images_b64 path against a
// preprocessing-enabled fleet.
func TestRunEncodedImages(t *testing.T) {
	fleet, err := core.StartTier(core.DeploymentConfig{Platform: "A100", Models: []string{"ViT_Tiny"}, Preproc: "cpu"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	report, err := Run(context.Background(), Config{
		Target:   fleet.URL,
		Model:    "ViT_Tiny",
		Name:     "img",
		Duration: 500 * time.Millisecond,
		Classes:  []ClassConfig{{Class: "online", Rate: 30, Items: 1, ImageSide: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := report.Classes[0]
	if c.Completed == 0 || c.ErrorRate != 0 {
		t.Errorf("encoded-image class completed=%d errors=%.2f (429=%d 504=%d 5xx=%d http=%d timeout=%d transport=%d)",
			c.Completed, c.ErrorRate, c.Rejected429, c.Expired504, c.Server5xx, c.OtherHTTP, c.Timeouts, c.Transport)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty config ran, want error")
	}
}
