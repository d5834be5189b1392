package energy

import (
	"math"
	"testing"

	"harvest/internal/hw"
)

func TestPowerAtBounds(t *testing.T) {
	m := New(hw.Jetson())
	idle := m.PowerAt(0)
	full := m.PowerAt(1)
	if math.Abs(idle-25*0.3) > 1e-9 {
		t.Errorf("idle power %v, want %v", idle, 25*0.3)
	}
	if math.Abs(full-25) > 1e-9 {
		t.Errorf("full power %v, want 25", full)
	}
	// Clamping.
	if m.PowerAt(-1) != idle || m.PowerAt(2) != full {
		t.Error("MFU clamping broken")
	}
	// Monotone in utilization.
	if !(m.PowerAt(0.5) > idle && m.PowerAt(0.5) < full) {
		t.Error("power not interpolating")
	}
}

func TestJoulesPerImage(t *testing.T) {
	m := New(hw.A100())
	j, err := m.JoulesPerImage(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-0.4) > 1e-9 { // 400W / 1000 img/s
		t.Errorf("J/img %v, want 0.4", j)
	}
	if _, err := m.JoulesPerImage(0, 1); err == nil {
		t.Error("zero throughput accepted")
	}
}

func TestBatchAndCampaignJoules(t *testing.T) {
	// A batch or campaign of n images costs n J/img, which is the power
	// draw over the n/throughput seconds it runs.
	m := New(hw.A100())
	j, err := m.JoulesPerImage(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A 2 s batch of 2000 images at 400 W.
	if bj := 2000 * j; math.Abs(bj-m.PowerAt(1)*2) > 1e-9 || math.Abs(bj-800) > 1e-9 {
		t.Errorf("batch joules %v, want 800", bj)
	}
	// A campaign of 1000 images at 100 img/s runs 10 s at 400 W.
	cj, err := m.JoulesPerImage(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cj *= 1000; math.Abs(cj-m.PowerAt(1)*10) > 1e-9 || math.Abs(cj-4000) > 1e-9 {
		t.Errorf("campaign joules %v, want 4000", cj)
	}
	if _, err := m.JoulesPerImage(0, 1); err == nil {
		t.Error("zero throughput campaign accepted")
	}
}

func TestImagesPerJouleInverse(t *testing.T) {
	m := New(hw.V100())
	j, err := m.JoulesPerImage(500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ipj, err := m.ImagesPerJoule(500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j*ipj-1) > 1e-9 {
		t.Errorf("J/img * img/J = %v", j*ipj)
	}
}

func TestJetsonWinsImagesPerJouleAtLowUtil(t *testing.T) {
	// The extension's headline: at comparable MFU, the 25W Jetson
	// yields more images per joule than the 400W A100 whenever its
	// throughput is more than 25/400 of the A100's.
	jm := New(hw.Jetson())
	am := New(hw.A100())
	jIPJ, err := jm.ImagesPerJoule(1124, 0.13) // Jetson ViT_Tiny e2e
	if err != nil {
		t.Fatal(err)
	}
	aIPJ, err := am.ImagesPerJoule(14630, 0.08) // A100 ViT_Tiny e2e
	if err != nil {
		t.Fatal(err)
	}
	if jIPJ <= aIPJ {
		t.Errorf("Jetson %v img/J not above A100 %v img/J for ViT_Tiny", jIPJ, aIPJ)
	}
}
