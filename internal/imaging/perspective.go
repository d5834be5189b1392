package imaging

import (
	"fmt"
	"math"
)

// Homography is a 3x3 projective transform in row-major order mapping
// destination coordinates to source coordinates.
type Homography [9]float64

// Point is a 2-D coordinate.
type Point struct{ X, Y float64 }

// SolveHomography computes the homography mapping each dst[i] to src[i]
// from exactly four point correspondences by solving the standard 8x8
// linear system with Gaussian elimination and partial pivoting.
func SolveHomography(dst, src [4]Point) (Homography, error) {
	// Unknowns h0..h7 (h8 = 1). For each pair:
	//   sx = (h0*dx + h1*dy + h2) / (h6*dx + h7*dy + 1)
	//   sy = (h3*dx + h4*dy + h5) / (h6*dx + h7*dy + 1)
	var a [8][9]float64
	for i := 0; i < 4; i++ {
		dx, dy := dst[i].X, dst[i].Y
		sx, sy := src[i].X, src[i].Y
		a[2*i] = [9]float64{dx, dy, 1, 0, 0, 0, -dx * sx, -dy * sx, sx}
		a[2*i+1] = [9]float64{0, 0, 0, dx, dy, 1, -dx * sy, -dy * sy, sy}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < 8; col++ {
		piv := col
		for r := col + 1; r < 8; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return Homography{}, fmt.Errorf("imaging: degenerate point configuration")
		}
		a[col], a[piv] = a[piv], a[col]
		pv := a[col][col]
		for c := col; c < 9; c++ {
			a[col][c] /= pv
		}
		for r := 0; r < 8; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for c := col; c < 9; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	var h Homography
	for i := 0; i < 8; i++ {
		h[i] = a[i][8]
	}
	h[8] = 1
	return h, nil
}

// Apply maps a destination point through the homography to source
// coordinates.
func (h Homography) Apply(x, y float64) (float64, float64) {
	w := h[6]*x + h[7]*y + h[8]
	if w == 0 {
		return 0, 0
	}
	return (h[0]*x + h[1]*y + h[2]) / w, (h[3]*x + h[4]*y + h[5]) / w
}

// GroundCameraHomography returns the fixed perspective correction used
// for the simulated ground-vehicle camera: it rectifies the trapezoidal
// road-plane view of a forward-tilted camera into a top-down crop.
func GroundCameraHomography(srcW, srcH, dstW, dstH int) (Homography, error) {
	// The trapezoid in the camera frame covering the soil plane.
	src := [4]Point{
		{X: 0.30 * float64(srcW), Y: 0.55 * float64(srcH)}, // top-left
		{X: 0.70 * float64(srcW), Y: 0.55 * float64(srcH)}, // top-right
		{X: 0.95 * float64(srcW), Y: 0.95 * float64(srcH)}, // bottom-right
		{X: 0.05 * float64(srcW), Y: 0.95 * float64(srcH)}, // bottom-left
	}
	dst := [4]Point{
		{X: 0, Y: 0},
		{X: float64(dstW - 1), Y: 0},
		{X: float64(dstW - 1), Y: float64(dstH - 1)},
		{X: 0, Y: float64(dstH - 1)},
	}
	return SolveHomography(dst, src)
}
