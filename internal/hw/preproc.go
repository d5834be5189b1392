package hw

// GPUPreprocImageSeconds models the DALI-analogue GPU preprocessing
// cost of one image: fixed launch/setup cost, decode proportional to
// input pixels, transform (resize+crop+normalize) proportional to
// output pixels. This structure reproduces the paper's Fig. 7
// observations: decode cost is constant per dataset so small output
// resolutions (DALI 32) are fastest, and at large output resolutions
// the transform dominates so datasets converge.
func GPUPreprocImageSeconds(p *Platform, inPixels, outPixels int) float64 {
	ns := p.PreFixedNs +
		p.DecodeNsPerPixel*float64(inPixels) +
		p.TransformNsPerPix*float64(outPixels)
	return ns / 1e9
}

// GPUPreprocBatchSeconds models a batch: per-image costs pipeline on
// the GPU plus one fixed per-batch overhead.
func GPUPreprocBatchSeconds(p *Platform, inPixels []int, outPixels int) float64 {
	total := p.PreBatchFixedNs / 1e9
	for _, px := range inPixels {
		total += GPUPreprocImageSeconds(p, px, outPixels)
	}
	return total
}

// ScaleCPUSeconds converts a single-threaded CPU duration measured on
// the build host into the equivalent duration on platform p, using the
// per-core relative speed of Table 1's CPUs. The build host is assumed
// comparable to a modern cloud core (rel = 1.0).
func ScaleCPUSeconds(p *Platform, hostSeconds float64) float64 {
	if p.CPUSingleThreadRel <= 0 {
		return hostSeconds
	}
	return hostSeconds / p.CPUSingleThreadRel
}
