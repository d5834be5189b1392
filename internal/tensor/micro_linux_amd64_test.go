package tensor

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"harvest/internal/guardpage"
	"harvest/internal/stats"
)

// TestQ7ReadsStayInsideOperands places the int8 operands' last bytes
// just before a PROT_NONE page, so a read one byte past either faults
// the test:
//   - the AMX block body on A codes that end with the last tile's last
//     row (rows wider than their codes) and weights that end with the
//     last strip, for K of one short block, whole blocks, and whole
//     blocks plus a tail;
//   - Q7GemmTransB, with and without the AMX body, on packed acts whose
//     last row and packed weights whose last strip end at the page, with
//     row counts on and off the tiles' multiples, and Q7LinearEpilogue on
//     such weights.
func TestQ7ReadsStayInsideOperands(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	r := stats.NewRNG(65)
	if q7Block != nil {
		const mt, nt = 3, 4
		for _, kg := range []int{3, 16, 18, 48, 70} {
			lda := 4*kg + 8
			a := bytes.Repeat([]uint8{1}, (16*mt-1)*lda+4*kg)
			b := make([]uint8, 64*kg*nt)
			for i := range b {
				b[i] = uint8(int8(r.Intn(127) - 63))
			}
			want := make([]int32, 16*mt*16*nt)
			q7AMXBody(a, lda, b, kg, want, 16*nt, mt, nt)
			guardpage.OnGuard(t, len(a), func(ma []byte) {
				copy(ma, a)
				guardpage.OnGuard(t, len(b), func(mb []byte) {
					copy(mb, b)
					got := make([]int32, 16*mt*16*nt)
					q7AMXBody(ma, lda, mb, kg, got, 16*nt, mt, nt)
					requireSameInts(t, fmt.Sprintf("AMX body kg=%d on guarded operands", kg), got, want)
				})
			})
		}
	}
	for _, s := range [][3]int{{48, 64, 192}, {96, 40, 70}, {33, 17, 64}, {7, 16, 12}, {160, 96, 260}, {144, 32, 48}} {
		m, n, k := s[0], s[1], s[2]
		acts, ws := randQ7Codes(r, m, n, k)
		want := make([]int32, m*n)
		Q7GemmTransBRef(want, acts, ws, m, n, k)
		x := randTensor(r, m, k).Data
		scales := filled(n, 0.01)
		wantF := make([]float32, m*n)
		q7LinearRef(wantF, x, m, n, k, ws, scales, false, Epilogue{})
		pa, pw := PackQ7Acts(acts, m, k), PackQ7Weights(ws, n, k)
		guardpage.OnGuard(t, len(pa.Data), func(ma []byte) {
			copy(ma, pa.Data)
			guardpage.OnGuard(t, len(pw.Data), func(mw []byte) {
				copy(mw, pw.Data)
				ga := &PackedQ7{Rows: pa.Rows, K: pa.K, Kp: pa.Kp, Data: ma}
				gw := &PackedQ7{Rows: pw.Rows, K: pw.K, Kp: pw.Kp, Data: mw, RowSum: pw.RowSum, weights: true}
				withAndWithoutAMX(func(tiles string) {
					got := make([]int32, m*n)
					Q7GemmTransB(got, ga, gw)
					requireSameInts(t, fmt.Sprintf("%s (%d,%d,%d) on guarded operands", tiles, m, n, k), got, want)
					gotF := make([]float32, m*n)
					Q7LinearEpilogue(gotF, x, m, k, gw, scales, false, Epilogue{})
					requireSameFloats(t, fmt.Sprintf("%s linear (%d,%d,%d) on guarded weights", tiles, m, n, k), gotF, wantF)
				})
			})
		})
	}
}
