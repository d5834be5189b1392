package tensor

// Conv2D computes a 2-D convolution of input x (N,C,H,W) with weights
// w (OutC, C, KH, KW) and optional bias (OutC), using im2col + GEMM.
// Output is (N, OutC, OH, OW) with OH = (H + 2*pad - KH)/stride + 1.
func Conv2D(x, w, bias *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, inC, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	if inC != c {
		panic(shapeErrf("Conv2D channel mismatch: input has %d channels, weights expect %d", c, inC))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (wd+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(shapeErrf("Conv2D produces empty output for input %v, kernel %v", x.Shape, w.Shape))
	}
	out := New(n, outC, oh, ow)
	cols := New(c*kh*kw, oh*ow)
	wmat := w.Reshape(outC, c*kh*kw)
	for b := 0; b < n; b++ {
		im2col(x, b, cols, kh, kw, stride, pad, oh, ow)
		// out[b] = wmat (outC x ckk) * cols (ckk x ohow)
		dst := out.Data[b*outC*oh*ow : (b+1)*outC*oh*ow]
		for i := range dst {
			dst[i] = 0
		}
		GemmInto(dst, wmat.Data, cols.Data, outC, oh*ow, c*kh*kw)
		if bias != nil {
			for oc := 0; oc < outC; oc++ {
				bval := bias.Data[oc]
				plane := dst[oc*oh*ow : (oc+1)*oh*ow]
				for i := range plane {
					plane[i] += bval
				}
			}
		}
	}
	return out
}

// im2col unrolls image b of x into cols (C*KH*KW x OH*OW).
func im2col(x *Tensor, b int, cols *Tensor, kh, kw, stride, pad, oh, ow int) {
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	colW := oh * ow
	for ch := 0; ch < c; ch++ {
		src := x.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := cols.Data[((ch*kh+ky)*kw+kx)*colW : ((ch*kh+ky)*kw+kx+1)*colW]
				idx := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							row[idx] = 0
							idx++
						}
						continue
					}
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							row[idx] = 0
						} else {
							row[idx] = src[iy*w+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// Im2ColTransInto unrolls image b of the NCHW tensor x into dst laid
// out *transposed* relative to im2col: (OH*OW x C*KH*KW), one receptive
// field per row. This is the layout the quantized and half-precision
// conv paths want — each output pixel becomes a contiguous k-vector
// that can be row-quantized and multiplied against (OutC x C*KH*KW)
// weights with the TransB kernels. dst must hold oh*ow*c*kh*kw values.
// It fills one output row (ow receptive fields) at a time, so the ow
// destination lines a column sweep writes stay in L1.
func Im2ColTransInto(dst []float32, x *Tensor, b, kh, kw, stride, pad, oh, ow int) {
	c, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	ckk := c * kh * kw
	if len(dst) < oh*ow*ckk {
		panic(shapeErrf("Im2ColTransInto dst holds %d values, want %d", len(dst), oh*ow*ckk))
	}
	for oy := 0; oy < oh; oy++ {
		rows := dst[oy*ow*ckk : (oy+1)*ow*ckk]
		for ch := 0; ch < c; ch++ {
			src := x.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride - pad + ky
				for kx := 0; kx < kw; kx++ {
					col := (ch*kh+ky)*kw + kx
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							rows[ox*ckk+col] = 0
						}
						continue
					}
					srow := src[iy*w : (iy+1)*w]
					for ox := 0; ox < ow; ox++ {
						var v float32
						if ix := ox*stride - pad + kx; ix >= 0 && ix < w {
							v = srow[ix]
						}
						rows[ox*ckk+col] = v
					}
				}
			}
		}
	}
}

// MaxPool2D applies max pooling with square kernel k and the given
// stride to an NCHW tensor.
func MaxPool2D(x *Tensor, k, stride, pad int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	out := New(n, c, oh, ow)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			dst := out.Data[(b*c+ch)*oh*ow : (b*c+ch+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(-3.4e38)
					for ky := 0; ky < k; ky++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride - pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							if v := src[iy*w+ix]; v > best {
								best = v
							}
						}
					}
					dst[oy*ow+ox] = best
				}
			}
		}
	}
	return out
}

// GlobalAvgPool2D reduces an NCHW tensor to (N, C) by averaging each
// spatial plane.
func GlobalAvgPool2D(x *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c)
	plane := h * w
	inv := float32(1 / float64(plane))
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			src := x.Data[(b*c+ch)*plane : (b*c+ch+1)*plane]
			var acc float32
			for _, v := range src {
				acc += v
			}
			out.Data[b*c+ch] = acc * inv
		}
	}
	return out
}
