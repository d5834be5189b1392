package experiments

import (
	"fmt"

	"harvest/internal/datasets"
	"harvest/internal/hw"
	"harvest/internal/metrics"
	"harvest/internal/models"
	"harvest/internal/pipeline"
	"harvest/internal/transfer"
)

// Offload answers the §2.2.1 transmission question: for each wireless
// link and JPEG quality, is it faster to infer on the Jetson in the
// field or to upload to the A100 cloud pipeline? Image payload sizes
// are real (the images are actually JPEG-encoded at each quality).
func Offload(opts Options) (*Artifact, error) {
	a := &Artifact{ID: "offload", Title: "Edge vs Cloud Offload Under Field Connectivity (extension)"}

	// Representative image: a Plant Village sample, really encoded.
	spec, err := datasets.ByName(datasets.SlugPlantVillage)
	if err != nil {
		return nil, err
	}
	ds, err := datasets.New(spec, opts.Seed)
	if err != nil {
		return nil, err
	}
	im, err := ds.Image(0)
	if err != nil {
		return nil, err
	}

	jetson := hw.Jetson()
	a100 := hw.A100()
	px := im.W * im.H
	qualities := []int{95, 85, 60, 30}
	if opts.Quick {
		qualities = []int{85, 30}
	}

	// Latency view: single-frame decision per model (real-time style,
	// batch 1 on both sides).
	lat := metrics.NewTable(
		fmt.Sprintf("Single %dx%d frame latency: on-device Jetson vs upload+A100", im.W, im.H),
		"Model", "Link", "JPEG q", "Payload(KiB)", "Upload(ms)", "Cloud e2e(ms)", "Edge(ms)", "Winner")
	for _, name := range []string{models.NameResNet50, models.NameViTBase} {
		edgeSec, err := frameSeconds(jetson, name, px)
		if err != nil {
			return nil, err
		}
		cloudSec, err := frameSeconds(a100, name, px)
		if err != nil {
			return nil, err
		}
		for _, link := range transfer.Links() {
			for _, q := range qualities {
				size, err := transfer.CompressedSize(im, q)
				if err != nil {
					return nil, err
				}
				d := transfer.DecideOffload(link, size, edgeSec, cloudSec)
				winner := "cloud"
				if d.EdgeWins {
					winner = "edge"
				}
				lat.AddRow(name, link.Name, q, float64(size)/1024, d.UploadLatency*1000,
					d.CloudLatency*1000, d.EdgeLatency*1000, winner)
			}
		}
	}
	a.Tables = append(a.Tables, lat)

	// Throughput view: offline campaigns are link-bound to the cloud.
	thr := metrics.NewTable("Sustained campaign throughput (img/s): edge device vs link-capped cloud",
		"Model", "Edge img/s", "Cloud img/s", "via WiFi", "via 5G", "via LTE", "via Satellite")
	size85, err := transfer.CompressedSize(im, 85)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{models.NameResNet50, models.NameViTBase} {
		edgeThr, err := pipelineThroughput(jetson, name, px)
		if err != nil {
			return nil, err
		}
		cloudThr, err := pipelineThroughput(a100, name, px)
		if err != nil {
			return nil, err
		}
		row := []any{name, edgeThr, cloudThr}
		for _, link := range transfer.Links() {
			capped := link.ThroughputImagesPerSec(size85)
			if cloudThr < capped {
				capped = cloudThr
			}
			row = append(row, capped)
		}
		thr.AddRow(row...)
	}
	a.Tables = append(a.Tables, thr)
	a.AddNote("payload sizes are real JPEG encodings of the synthetic sample at each quality")
	a.AddNote("the crossover moves with model size, link quality and compression — the paper's motivation for supporting both edge and cloud deployment from one training run")
	return a, nil
}

// frameSeconds returns one frame's preprocessing + inference seconds
// at batch 1 on the platform.
func frameSeconds(p *hw.Platform, model string, inPixels int) (float64, error) {
	st, err := pipeline.PriceStages(p, model, 1, inPixels)
	return st.PreprocSeconds + st.InferSeconds, err
}

// pipelineThroughput returns the overlapped pipeline throughput at the
// platform's largest end-to-end batch: the slower of preprocessing and
// inference bounds it.
func pipelineThroughput(p *hw.Platform, model string, inPixels int) (float64, error) {
	st, err := pipeline.PriceStages(p, model, 0, inPixels)
	if err != nil {
		return 0, err
	}
	return float64(st.Batch) / max(st.PreprocSeconds, st.InferSeconds), nil
}
