// Package models defines the four vision models of the paper's Table 3
// (ViT Tiny/Small/Base and ResNet50) as layer-wise intermediate
// representations with exact FLOPs/parameter/activation accounting, plus
// real float32 forward-pass implementations over internal/tensor for
// functional validation.
//
// FLOPs convention: following the paper (whose Table 3 values match
// fvcore/timm-style counters), one multiply-accumulate counts as one
// FLOP and the headline "GFLOPs/Image" counts parameterized layers only
// (convolutions and linear projections). The non-parameterized attention
// matmuls (QK^T and AV) are tracked separately; they are what the paper
// calls the "attention layers" share (18.23% for ViT-Tiny vs 81.73% for
// MLP, §4.0.2).
package models

import "fmt"

// LayerKind classifies a layer for the per-kind compute breakdown.
type LayerKind int

// Layer kinds.
const (
	KindConv LayerKind = iota
	KindLinear
	KindAttnMatmul
	KindNorm
	KindPool
	KindAct
	KindEmbed
)

// String names the kind.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindLinear:
		return "linear"
	case KindAttnMatmul:
		return "attn-matmul"
	case KindNorm:
		return "norm"
	case KindPool:
		return "pool"
	case KindAct:
		return "act"
	case KindEmbed:
		return "embed"
	}
	return fmt.Sprintf("LayerKind(%d)", int(k))
}

// Layer is one entry of the model IR with its per-image costs.
type Layer struct {
	Name string
	Kind LayerKind
	// MACs per image (multiply-accumulates; the paper's FLOPs unit).
	MACs int64
	// Params is the number of learnable parameters.
	Params int64
	// OutElems is the number of output activation elements per image,
	// used by the activation-memory model.
	OutElems int64
}

// Architecture is the family of Table 3's "Architecture" row.
type Architecture int

// Architectures.
const (
	ArchTransformer Architecture = iota
	ArchCNN
)

// String names the architecture as the paper does.
func (a Architecture) String() string {
	if a == ArchCNN {
		return "CNN Based"
	}
	return "Transformer Based"
}

// Spec is a full model IR.
type Spec struct {
	Name       string
	Arch       Architecture
	InputSize  int // square spatial input
	NumClasses int
	Layers     []Layer
}

// Params returns total learnable parameters.
func (s *Spec) Params() int64 {
	var t int64
	for _, l := range s.Layers {
		t += l.Params
	}
	return t
}

// ParamMACs returns per-image MACs of parameterized layers only — the
// paper's headline "GFLOPs/Image" numerator.
func (s *Spec) ParamMACs() int64 {
	var t int64
	for _, l := range s.Layers {
		if l.Kind == KindConv || l.Kind == KindLinear || l.Kind == KindEmbed {
			t += l.MACs
		}
	}
	return t
}

// TotalMACs returns per-image MACs of every layer including the
// non-parameterized attention matmuls.
func (s *Spec) TotalMACs() int64 {
	var t int64
	for _, l := range s.Layers {
		t += l.MACs
	}
	return t
}

// GFLOPsPerImage returns the headline Table 3 metric.
func (s *Spec) GFLOPsPerImage() float64 { return float64(s.ParamMACs()) / 1e9 }

// BreakdownByKind returns each kind's share of TotalMACs, in [0,1].
func (s *Spec) BreakdownByKind() map[LayerKind]float64 {
	total := float64(s.TotalMACs())
	out := make(map[LayerKind]float64)
	if total == 0 {
		return out
	}
	for _, l := range s.Layers {
		out[l.Kind] += float64(l.MACs) / total
	}
	return out
}

// MLPAttentionShares returns the paper's §4.0.2 split for transformer
// models: "MLP layers" are the parameterized linear projections
// (qkv/proj/mlp/head), "attention layers" are the QK^T and AV matmuls.
func (s *Spec) MLPAttentionShares() (mlp, attn float64) {
	b := s.BreakdownByKind()
	return b[KindLinear] + b[KindEmbed], b[KindAttnMatmul]
}

// WeightBytes returns the model weight footprint at the given precision
// width in bytes per value.
func (s *Spec) WeightBytes(bytesPerValue int) int64 {
	return s.Params() * int64(bytesPerValue)
}

// TotalActivationElems returns the summed activation outputs of all
// layers per image — the per-image activation memory traffic used by
// the roofline analysis (each activation is written once and read by
// the next layer).
func (s *Spec) TotalActivationElems() int64 {
	var t int64
	for _, l := range s.Layers {
		t += l.OutElems
	}
	return t
}

// Validate checks IR consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("models: unnamed spec")
	}
	if s.InputSize <= 0 {
		return fmt.Errorf("models: %s invalid input size %d", s.Name, s.InputSize)
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("models: %s has no layers", s.Name)
	}
	for _, l := range s.Layers {
		if l.MACs < 0 || l.Params < 0 || l.OutElems < 0 {
			return fmt.Errorf("models: %s layer %s has negative accounting", s.Name, l.Name)
		}
	}
	return nil
}
