package loadgen

import (
	"context"
	"testing"
	"time"

	"harvest/internal/core"
)

// TestRunStreamAgainstEdgeCloud runs a short streaming scenario over a
// self-hosted continuum and checks the report's accounting closes:
// every frame resolves to exactly one outcome, the static camera hits
// the dedup cache, and the report artifact fields are populated.
func TestRunStreamAgainstEdgeCloud(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up an edge→cloud continuum")
	}
	ec, err := StartEdgeCloud(EdgeCloudConfig{
		// Compressed timescales keep the test fast while preserving
		// queueing behavior.
		Edge: core.DeploymentConfig{TimeScale: 0.2, Stream: &core.StreamConfig{
			LinkTimeScale:         -1,
			OffloadQueueThreshold: 2,
			Budget:                200 * time.Millisecond,
		}},
		Cloud: core.DeploymentConfig{TimeScale: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Close()

	rep, err := RunStream(context.Background(), StreamConfig{
		Name:            "stream-test",
		URL:             ec.URL,
		Cameras:         2,
		StaticCameras:   1,
		FPS:             120,
		FramesPerCamera: 30,
		Budget:          200 * time.Millisecond,
		FrameSize:       64,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Total
	if tot.Frames != 60 {
		t.Fatalf("total frames = %d, want 60", tot.Frames)
	}
	resolved := tot.ServedEdge + tot.ServedCloud + tot.DedupHits + tot.Dropped + tot.RejectedOrder + tot.Failed
	if resolved != tot.Frames {
		t.Fatalf("outcome accounting open: %d resolved of %d frames (%+v)", resolved, tot.Frames, tot)
	}
	if tot.RejectedOrder != 0 {
		t.Fatalf("in-order cameras saw %d order rejections", tot.RejectedOrder)
	}
	if len(rep.PerCamera) != 2 {
		t.Fatalf("per-camera reports = %d, want 2", len(rep.PerCamera))
	}
	// cam-00 is static at 120 FPS: frames land well inside the dedup
	// TTL and Hamming threshold.
	if rep.PerCamera[0].DedupHits == 0 {
		t.Fatalf("static camera recorded no dedup hits: %+v", rep.PerCamera[0])
	}
	if tot.IntendedStartMs.Count == 0 {
		t.Fatal("no intended-start latency samples recorded")
	}
	if rep.FrameBytes == 0 {
		t.Fatal("report missing frame size")
	}
}
