// Ground-vehicle real-time scenario (paper Fig. 3b): a GoPro-style 4K
// camera feed on a Jetson Orin Nano must be perspective-rectified,
// preprocessed and classified within the frame deadline. The example
// simulates 30 and 60 FPS streams for each model and reports which
// configurations hold the deadline — the paper's real-time tuning
// question.
package main

import (
	"errors"
	"fmt"
	"log"

	"harvest/internal/datasets"
	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/pipeline"
	"harvest/internal/sim"
	"harvest/internal/workload"
)

func main() {
	log.SetFlags(0)

	jetson := hw.Jetson()
	crsa, err := datasets.ByName(datasets.SlugCRSA)
	if err != nil {
		log.Fatal(err)
	}
	frameW, frameH := crsa.ModalSize()
	fmt.Printf("platform: %s (25W, unified %d GB)\n", jetson.FullName, jetson.GPUMemBytes>>30)
	fmt.Printf("camera:   %dx%d frames (CRSA ground-vehicle feed)\n\n", frameW, frameH)

	for _, fps := range []float64{30, 60} {
		deadline := 1 / fps
		fmt.Printf("--- %v FPS stream (deadline %.1f ms/frame) ---\n", fps, deadline*1000)
		for _, name := range models.Names() {
			// Real-time mode: batch 1 (one frame at a time). Per-frame
			// GPU preprocessing: decode + perspective + resize to the
			// model input.
			st, err := pipeline.PriceStages(jetson, name, 1, frameW*frameH)
			if errors.Is(err, engine.ErrOOM) {
				fmt.Printf("%-10s does not fit alongside preprocessing\n", name)
				continue
			} else if err != nil {
				log.Fatal(err)
			}

			// Simulate the stream: frames arrive at FPS; preprocess,
			// copy and inference are pipelined on their resources.
			slo := workload.NewSLOTracker(deadline)
			frames := workload.FrameTrace(fps, 240)
			arrivals := make([]float64, len(frames))
			for i, f := range frames {
				arrivals[i] = f.Time
			}
			for i, sp := range sim.Tandem(arrivals, st.Stations()...) {
				slo.Observe(sp[len(sp)-1].End - arrivals[i])
			}

			status := "MEETS deadline"
			if slo.MissRate() > 0.01 {
				status = "misses deadline"
			}
			fmt.Printf("%-10s pre=%5.1fms infer=%5.1fms  miss=%5.1f%% worst=%6.1fms  %s\n",
				name, st.PreprocSeconds*1000, st.InferSeconds*1000, slo.MissRate()*100,
				slo.WorstSeconds()*1000, status)
		}
		fmt.Println()
	}
	fmt.Println("tuning takeaway (paper §2.2.3/§5): on the edge, pick the smallest model that")
	fmt.Println("meets accuracy needs; preprocessing of 4K frames dominates the frame budget,")
	fmt.Println("so GPU-accelerated preprocessing is mandatory for real-time operation.")

	// Power-mode sweep: can a lower power mode still hold 30 FPS with
	// ViT_Tiny? Battery life vs. deadline margin.
	fmt.Println("\n--- power-mode sweep (ViT_Tiny, 30 FPS) ---")
	for _, watts := range hw.JetsonPowerWatts {
		mode, err := hw.JetsonPowerMode(watts)
		if err != nil {
			log.Fatal(err)
		}
		st, err := pipeline.PriceStages(mode, models.NameViTTiny, 1, frameW*frameH)
		if err != nil {
			log.Fatal(err)
		}
		frameSec := st.PreprocSeconds + st.InferSeconds // no pipelining margin assumed
		status := "holds 30 FPS"
		if frameSec > 1.0/30 {
			status = "too slow for 30 FPS"
		}
		fmt.Printf("%4.0fW  pre=%5.1fms infer=%5.1fms total=%5.1fms  ~%.1f img/J  %s\n",
			watts, st.PreprocSeconds*1000, st.InferSeconds*1000, frameSec*1000,
			(1/frameSec)/mode.PowerW, status)
	}
}
