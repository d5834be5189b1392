// Package tensor implements dense float32 tensors and the numeric
// kernels (GEMM, convolution, attention primitives) needed to execute
// real forward passes of the paper's vision models on the CPU.
//
// The kernels are written for clarity first and cache behaviour second:
// GEMM is blocked and parallelized across goroutines, convolution uses
// im2col + GEMM. They serve two purposes in this repository: (1) a
// functional backend so model outputs and shapes can be validated for
// real, and (2) the host-side GEMM microbenchmark behind the "practical
// FLOPS" methodology of Table 1.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	// Only the copy may reach the panic message: then the variadic
	// slice stays on the caller's stack.
	s := make([]int, len(shape))
	copy(s, shape)
	n := 1
	for _, d := range s {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in %v", d, s))
		}
		n *= d
	}
	return &Tensor{Shape: s, Data: make([]float32, n)}
}

// FromSlice wraps data with the given shape. The slice is not copied.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d != shape product %d", len(data), n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// Reshape returns a view with a new shape; the element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes size", t.Shape, shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}
}

// At returns the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", ix, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Rand64 is the minimal randomness source the tensor package needs to
// initialize weights; *stats.RNG satisfies it.
type Rand64 interface {
	Float64() float64
}

// RandInit fills the tensor with values uniform in [-scale, scale].
func (t *Tensor) RandInit(r Rand64, scale float64) {
	for i := range t.Data {
		t.Data[i] = float32((r.Float64()*2 - 1) * scale)
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// a and b, which must have identical shapes.
func MaxAbsDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: MaxAbsDiff on different sizes")
	}
	m := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// ArgMax returns the index of the first largest element of a vector.
func ArgMax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
