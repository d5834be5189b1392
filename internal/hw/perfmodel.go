package hw

import "fmt"

// PerfModel predicts engine throughput, latency and memory use for one
// model on one platform, from the platform's calibrated anchors.
type PerfModel struct {
	Platform  *Platform
	ModelName string
	// FLOPsPerImage is the headline per-image MAC count (the paper's
	// GFLOPs/Image * 1e9).
	FLOPsPerImage float64
	// WeightBytes is the loaded weight footprint at engine precision.
	WeightBytes int64

	Calib  EngineCalib
	mfuMax float64
}

// NewPerfModel builds a performance model for (platform, model).
func NewPerfModel(p *Platform, modelName string, flopsPerImage float64, weightBytes int64) (*PerfModel, error) {
	if flopsPerImage <= 0 {
		return nil, fmt.Errorf("hw: non-positive FLOPs per image %v", flopsPerImage)
	}
	c, err := Calibration(p.Name, modelName)
	if err != nil {
		return nil, err
	}
	m := &PerfModel{Platform: p, ModelName: modelName,
		FLOPsPerImage: flopsPerImage, WeightBytes: weightBytes, Calib: c}
	// Derive MFUmax from the published anchor:
	//   anchorMFU = anchorThroughput * F / calibPracticalFLOPS
	//   MFUmax    = anchorMFU * (anchorBatch + BHalf) / anchorBatch
	// CalibPractical (not PracticalTFLOPS) keeps the calibration valid
	// on derived platforms like Jetson power modes, whose throughput
	// scales while the anchor measurements stay at the 25W reference.
	anchorMFU := c.AnchorImgPerSec * flopsPerImage / (p.CalibPractical() * 1e12)
	m.mfuMax = anchorMFU * (float64(c.AnchorBatch) + c.BHalf) / float64(c.AnchorBatch)
	if m.mfuMax <= 0 || m.mfuMax > 1 {
		return nil, fmt.Errorf("hw: calibration for %s/%s yields MFUmax=%.3f outside (0,1]",
			p.Name, modelName, m.mfuMax)
	}
	return m, nil
}

// MFU returns the model FLOPs utilization at batch size b.
func (m *PerfModel) MFU(b int) float64 {
	if b <= 0 {
		return 0
	}
	return m.mfuMax * float64(b) / (float64(b) + m.Calib.BHalf)
}

// ThroughputImgPerSec returns steady-state images/second at batch b.
func (m *PerfModel) ThroughputImgPerSec(b int) float64 {
	return m.Platform.PracticalTFLOPS * 1e12 * m.MFU(b) / m.FLOPsPerImage
}

// LatencySeconds returns the time to execute one batch of size b.
func (m *PerfModel) LatencySeconds(b int) float64 {
	t := m.ThroughputImgPerSec(b)
	if t == 0 {
		return 0
	}
	return float64(b) / t
}

// SaturatedThroughput is the b->inf throughput limit.
func (m *PerfModel) SaturatedThroughput() float64 {
	return m.Platform.PracticalTFLOPS * 1e12 * m.mfuMax / m.FLOPsPerImage
}

// TheoreticalLatencySeconds is the Fig. 6 dashed line: ideal linear
// scaling at the saturated throughput.
func (m *PerfModel) TheoreticalLatencySeconds(b int) float64 {
	return float64(b) / m.SaturatedThroughput()
}

// AchievedTFLOPS is the Fig. 5 solid line: effective tensor-core
// throughput at batch b.
func (m *PerfModel) AchievedTFLOPS(b int) float64 {
	return m.ThroughputImgPerSec(b) * m.FLOPsPerImage / 1e12
}

// MemoryBytes returns device memory needed at batch b. pipeline=true
// selects the end-to-end co-located configuration (Fig. 8), which has a
// larger per-image working set and less available memory.
func (m *PerfModel) MemoryBytes(b int, pipeline bool) int64 {
	per := m.Calib.EngineBytesPerImage
	if pipeline {
		per = m.Calib.PipelineBytesPerImage
	}
	return m.WeightBytes + int64(b)*per
}

// FitsMemory reports whether batch b fits on the device.
func (m *PerfModel) FitsMemory(b int, pipeline bool) bool {
	avail := m.Platform.EngineMemBytes()
	if pipeline {
		avail = m.Platform.PipelineMemBytes()
	}
	return m.MemoryBytes(b, pipeline) <= avail
}

// MaxBatch returns the largest batch from sweep (ascending) that fits in
// memory, additionally capped at maxCap when maxCap > 0. Returns 0 if
// even the smallest batch does not fit.
func (m *PerfModel) MaxBatch(sweep []int, pipeline bool, maxCap int) int {
	best := 0
	for _, b := range sweep {
		if maxCap > 0 && b > maxCap {
			break
		}
		if m.FitsMemory(b, pipeline) {
			best = b
		}
	}
	return best
}

// TransferSeconds models the host-to-device copy of a batch of the
// given total byte size. On unified-memory platforms it returns 0.
func (m *PerfModel) TransferSeconds(bytes int64) float64 {
	if m.Platform.PCIeBytesPerSecond <= 0 {
		return 0
	}
	return float64(bytes) / m.Platform.PCIeBytesPerSecond
}
