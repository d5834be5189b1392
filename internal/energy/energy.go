// Package energy models per-inference energy consumption from the
// Table 1 power budgets, quantifying the paper's §5 guidance that
// deployments must balance "latency requirements with energy efficiency
// and memory utilization". The Jetson's 25 W mode is the reason edge
// deployment can win on images-per-joule despite losing on raw
// throughput.
package energy

import (
	"fmt"

	"harvest/internal/hw"
)

// Model converts throughput and utilization into energy metrics for a
// platform.
type Model struct {
	Platform *hw.Platform
	// IdleFraction is the fraction of the power budget drawn when the
	// accelerator is idle (static + host overhead). Defaults to 0.3,
	// a typical figure for both datacenter GPUs and Jetson modules.
	IdleFraction float64
}

// New creates an energy model for the platform.
func New(p *hw.Platform) *Model {
	return &Model{Platform: p, IdleFraction: 0.3}
}

// PowerAt returns the modeled power draw in watts when the engine runs
// at the given MFU: idle power plus utilization-proportional dynamic
// power.
func (m *Model) PowerAt(mfu float64) float64 {
	if mfu < 0 {
		mfu = 0
	}
	if mfu > 1 {
		mfu = 1
	}
	idle := m.Platform.PowerW * m.IdleFraction
	return idle + (m.Platform.PowerW-idle)*mfu
}

// JoulesPerImage returns the energy per image at the given throughput
// and utilization.
func (m *Model) JoulesPerImage(imgPerSec, mfu float64) (float64, error) {
	if imgPerSec <= 0 {
		return 0, fmt.Errorf("energy: non-positive throughput %v", imgPerSec)
	}
	return m.PowerAt(mfu) / imgPerSec, nil
}

// ImagesPerJoule is the figure of merit for battery-powered edge
// deployments (a ground vehicle's inference budget per charge).
func (m *Model) ImagesPerJoule(imgPerSec, mfu float64) (float64, error) {
	j, err := m.JoulesPerImage(imgPerSec, mfu)
	if err != nil {
		return 0, err
	}
	return 1 / j, nil
}
