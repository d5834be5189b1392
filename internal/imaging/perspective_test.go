package imaging

import (
	"math"
	"testing"

	"harvest/internal/stats"
)

func TestSolveHomographyIdentity(t *testing.T) {
	pts := [4]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	h, err := SolveHomography(pts, pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Point{{0, 0}, {5, 5}, {10, 10}, {3, 7}} {
		x, y := h.Apply(p.X, p.Y)
		if math.Abs(x-p.X) > 1e-9 || math.Abs(y-p.Y) > 1e-9 {
			t.Errorf("identity homography maps (%v,%v) to (%v,%v)", p.X, p.Y, x, y)
		}
	}
}

func TestSolveHomographyScale(t *testing.T) {
	dst := [4]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	src := [4]Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	h, err := SolveHomography(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	x, y := h.Apply(0.5, 0.5)
	if math.Abs(x-1) > 1e-9 || math.Abs(y-1) > 1e-9 {
		t.Errorf("scale homography maps center to (%v,%v), want (1,1)", x, y)
	}
}

func TestSolveHomographyMapsCorrespondences(t *testing.T) {
	dst := [4]Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}
	src := [4]Point{{20, 30}, {80, 25}, {90, 95}, {10, 85}}
	h, err := SolveHomography(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		x, y := h.Apply(dst[i].X, dst[i].Y)
		if math.Abs(x-src[i].X) > 1e-6 || math.Abs(y-src[i].Y) > 1e-6 {
			t.Errorf("corner %d maps to (%v,%v), want (%v,%v)", i, x, y, src[i].X, src[i].Y)
		}
	}
}

func TestSolveHomographyDegenerate(t *testing.T) {
	// Three collinear destination points -> singular system.
	dst := [4]Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	src := [4]Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if _, err := SolveHomography(dst, src); err == nil {
		t.Error("degenerate configuration accepted")
	}
}

func TestWarpPerspectiveIdentity(t *testing.T) {
	im := Synthesize(24, 24, KindLeaf, stats.NewRNG(1))
	pts := [4]Point{{0, 0}, {23, 0}, {23, 23}, {0, 23}}
	h, err := SolveHomography(pts, pts)
	if err != nil {
		t.Fatal(err)
	}
	out := NewImage(24, 24)
	WarpPerspectiveInto(out, im, h)
	var worst int
	for i := range im.Pix {
		d := int(im.Pix[i]) - int(out.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 1 {
		t.Errorf("identity warp changed pixels by up to %d", worst)
	}
}

func TestWarpPerspectiveOutOfBoundsBlack(t *testing.T) {
	im := constantImage(10, 10, 255)
	// Map destination far outside the source.
	dst := [4]Point{{0, 0}, {9, 0}, {9, 9}, {0, 9}}
	src := [4]Point{{100, 100}, {109, 100}, {109, 109}, {100, 109}}
	h, err := SolveHomography(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	out := NewImage(10, 10)
	for i := range out.Pix {
		out.Pix[i] = 0xAB // dirty buffer: out-of-range must be repainted black
	}
	WarpPerspectiveInto(out, im, h)
	for i, p := range out.Pix {
		if p != 0 {
			t.Fatalf("out-of-bounds sample %d = %d, want black", i, p)
		}
	}
}

func TestGroundCameraHomography(t *testing.T) {
	h, err := GroundCameraHomography(3840, 2160, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	// The rectified top-left corner must map into the trapezoid's
	// top-left region of the source frame.
	x, y := h.Apply(0, 0)
	if math.Abs(x-0.30*3840) > 1 || math.Abs(y-0.55*2160) > 1 {
		t.Errorf("dst(0,0) maps to (%v,%v), want (%v,%v)", x, y, 0.30*3840, 0.55*2160)
	}
	// Bottom-right corner.
	x, y = h.Apply(511, 511)
	if math.Abs(x-0.95*3840) > 1 || math.Abs(y-0.95*2160) > 1 {
		t.Errorf("dst(511,511) maps to (%v,%v)", x, y)
	}
}

func TestApplyAtInfinity(t *testing.T) {
	var h Homography // all zeros -> w == 0
	x, y := h.Apply(1, 1)
	if x != 0 || y != 0 {
		t.Errorf("degenerate Apply returned (%v,%v)", x, y)
	}
}
