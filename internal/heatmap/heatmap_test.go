package heatmap

import (
	"bytes"
	"math"
	"testing"

	"harvest/internal/imaging"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("zero cols accepted")
	}
	m, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cols != 4 || m.Rows != 3 || len(m.Values) != 12 {
		t.Errorf("map %+v", m)
	}
}

func TestSetClampsAndBounds(t *testing.T) {
	m, _ := New(2, 2)
	if err := m.Set(0, 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 {
		t.Errorf("clamped high value %v", m.At(0, 0))
	}
	if err := m.Set(1, 1, -0.5); err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 0 {
		t.Errorf("clamped low value %v", m.At(1, 1))
	}
	if err := m.Set(0, 0, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 0 {
		t.Error("NaN not sanitized")
	}
	if err := m.Set(2, 0, 0.5); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

func TestMean(t *testing.T) {
	m, _ := New(2, 1)
	_ = m.Set(0, 0, 0.2)
	_ = m.Set(1, 0, 0.8)
	if mean := m.Mean(); math.Abs(mean-0.5) > 1e-12 {
		t.Errorf("mean %v", mean)
	}
}

func TestColormapEndpoints(t *testing.T) {
	// v=0 is blue-ish (cold), v=1 is red (hot).
	r0, _, b0 := colormap(0)
	if b0 != 255 || r0 != 0 {
		t.Errorf("cold endpoint r=%d b=%d", r0, b0)
	}
	r1, g1, _ := colormap(1)
	if r1 != 255 || g1 != 0 {
		t.Errorf("hot endpoint r=%d g=%d", r1, g1)
	}
	// Midpoint is green-ish.
	_, gm, _ := colormap(0.5)
	if gm != 255 {
		t.Errorf("mid endpoint g=%d", gm)
	}
}

func TestRender(t *testing.T) {
	m, _ := New(3, 2)
	im, err := m.Render(8)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 24 || im.H != 16 {
		t.Errorf("render %dx%d", im.W, im.H)
	}
	if _, err := m.Render(0); err == nil {
		t.Error("zero cell size accepted")
	}
	// Cell fill: every pixel of cell (0,0) has the same color.
	_ = m.Set(0, 0, 0.9)
	im2, _ := m.Render(4)
	r0, g0, b0 := im2.At(0, 0)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			r, g, b := im2.At(x, y)
			if r != r0 || g != g0 || b != b0 {
				t.Fatal("cell not uniformly filled")
			}
		}
	}
}

func TestWritePPM(t *testing.T) {
	m, _ := New(2, 2)
	var buf bytes.Buffer
	if err := m.WritePPM(&buf, 4); err != nil {
		t.Fatal(err)
	}
	im, err := imaging.DecodeBytes(buf.Bytes(), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 8 || im.H != 8 {
		t.Errorf("ppm %dx%d", im.W, im.H)
	}
}

func TestFromScores(t *testing.T) {
	logits := [][]float32{
		{10, 0}, // class 0 near-certain
		{0, 10}, // class 0 near-zero
		{0, 0},  // uniform -> 0.5
		{5, 5},  // uniform -> 0.5
	}
	m, err := FromScores(2, 2, logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) < 0.99 {
		t.Errorf("cell 0 %v, want ~1", m.At(0, 0))
	}
	if m.At(1, 0) > 0.01 {
		t.Errorf("cell 1 %v, want ~0", m.At(1, 0))
	}
	if math.Abs(m.At(0, 1)-0.5) > 1e-6 || math.Abs(m.At(1, 1)-0.5) > 1e-6 {
		t.Errorf("uniform cells %v %v, want 0.5", m.At(0, 1), m.At(1, 1))
	}
}

func TestFromScoresErrors(t *testing.T) {
	if _, err := FromScores(2, 2, [][]float32{{1, 2}}, 0); err == nil {
		t.Error("wrong score count accepted")
	}
	if _, err := FromScores(1, 1, [][]float32{{1, 2}}, 5); err == nil {
		t.Error("out-of-range class accepted")
	}
}
