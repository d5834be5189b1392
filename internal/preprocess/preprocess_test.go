package preprocess

import (
	"strings"
	"sync"
	"testing"
	"time"

	"harvest/internal/datasets"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/stats"
)

func testItems(t *testing.T, slug string, n int) []Item {
	t.Helper()
	spec, err := datasets.ByName(slug)
	if err != nil {
		t.Fatal(err)
	}
	ds := datasets.MustNew(spec, 42)
	items := make([]Item, n)
	for i := range items {
		items[i], err = ItemFromDataset(ds, i)
		if err != nil {
			t.Fatal(err)
		}
	}
	return items
}

func TestCPUEngineMaterializesNormalizedTensors(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 3)
	e := &CPUEngine{Platform: hw.A100(), Out: 64, Materialize: true}
	res, err := e.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tensors) != 3 {
		t.Fatalf("got %d tensors", len(res.Tensors))
	}
	for _, tensor := range res.Tensors {
		if len(tensor) != 3*64*64 {
			t.Fatalf("tensor length %d, want %d", len(tensor), 3*64*64)
		}
		for _, v := range tensor {
			if v < -3 || v > 3 {
				t.Fatalf("unnormalized value %v", v)
			}
		}
	}
	if res.Seconds <= 0 {
		t.Error("no time reported")
	}
}

func TestCPUEngineNoMaterialize(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 2)
	e := &CPUEngine{Platform: hw.A100(), Out: 32}
	res, err := e.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tensors != nil {
		t.Error("tensors returned without Materialize")
	}
	if e.Name() != "PyTorch" || e.OutRes() != 32 {
		t.Error("engine identity wrong")
	}
}

func TestCPUEngineEmptyBatch(t *testing.T) {
	e := &CPUEngine{Platform: hw.A100(), Out: 32}
	if _, err := e.ProcessBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

// TestCPUEngineScalesToPlatform: ProcessBatch reports the measured host
// CPU time through hw.ScaleCPUSeconds, so the platform ordering is
// asserted on a fixed duration; two measured durations can order either
// way on a loaded host.
func TestCPUEngineScalesToPlatform(t *testing.T) {
	const host = 0.01
	if j, a := hw.ScaleCPUSeconds(hw.Jetson(), host), hw.ScaleCPUSeconds(hw.A100(), host); j <= a {
		t.Errorf("Jetson-scaled time %.4f not above cloud time %.4f", j, a)
	}
	res, err := (&CPUEngine{Platform: hw.Jetson(), Out: 32}).ProcessBatch(testItems(t, datasets.SlugFruits360, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 {
		t.Errorf("modeled batch time %.4f, want > 0", res.Seconds)
	}
}

func TestItemFromDatasetCarriesTask(t *testing.T) {
	items := testItems(t, datasets.SlugCRSA, 1)
	if items[0].Task != datasets.TaskPerspective {
		t.Error("CRSA item lost its perspective task")
	}
	if items[0].W != 3840 || items[0].H != 2160 {
		t.Errorf("CRSA item size %dx%d", items[0].W, items[0].H)
	}
}

func TestPerspectiveItemProcessing(t *testing.T) {
	// A moderately sized synthetic frame keeps the test fast while the
	// full-res vs working-res warp cost difference stays measurable.
	im := imaging.Synthesize(960, 540, imaging.KindSoil, stats.NewRNG(1))
	item := Item{Decoded: im, W: im.W, H: im.H, Task: datasets.TaskPerspective}
	py := &CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true}
	if _, err := py.ProcessBatch([]Item{item}); err != nil { // warm-up
		t.Fatal(err)
	}
	res, err := py.ProcessBatch([]Item{item})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tensors) != 1 || len(res.Tensors[0]) != 3*32*32 {
		t.Fatal("perspective item produced wrong tensor")
	}
	cv := NewCV2Engine(hw.A100(), 32)
	cv.Materialize = true
	res2, err := cv.ProcessBatch([]Item{item})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Name() != "CV2" {
		t.Errorf("CV2 engine name %q", cv.Name())
	}
	if len(res2.Tensors) != 1 {
		t.Fatal("CV2 produced no tensor")
	}
	// Full-res warp must cost more than working-res warp.
	if res2.Seconds <= res.Seconds {
		t.Errorf("CV2 (%.5fs) not slower than PyTorch (%.5fs) on perspective input",
			res2.Seconds, res.Seconds)
	}
}

func TestDecodeItemErrors(t *testing.T) {
	e := &CPUEngine{Platform: hw.A100(), Out: 32}
	if _, err := e.ProcessBatch([]Item{{}}); err == nil {
		t.Error("pixel-less item accepted")
	}
	if _, err := e.ProcessBatch([]Item{{Encoded: []byte("garbage"), Format: imaging.FormatJPEG}}); err == nil {
		t.Error("corrupt encoding accepted")
	}
}

// TestCPUEngineWorkerErrorPropagates: a corrupt item after three good
// ones fails the batch, and the error names its index.
func TestCPUEngineWorkerErrorPropagates(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 3)
	items = append(items, Item{Encoded: []byte("corrupt"), Format: imaging.FormatJPEG})
	e := &CPUEngine{Platform: hw.A100(), Out: 32}
	_, err := e.ProcessBatch(items)
	if err == nil || !strings.Contains(err.Error(), "item 3:") {
		t.Errorf("corrupt item 3: error %v, want one naming item 3", err)
	}
}

// TestCPUEngineWorkerErrorDeterministic: with several corrupt items in
// a batch, the error always names the first of them.
func TestCPUEngineWorkerErrorDeterministic(t *testing.T) {
	good := testItems(t, datasets.SlugFruits360, 2)
	bad := Item{Encoded: []byte("corrupt"), Format: imaging.FormatJPEG}
	items := []Item{good[0], bad, good[1], good[0], bad, bad}
	e := &CPUEngine{Platform: hw.A100(), Out: 32}
	for trial := 0; trial < 3; trial++ {
		_, err := e.ProcessBatch(items)
		if err == nil || !strings.Contains(err.Error(), "item 1:") {
			t.Fatalf("trial %d: error %v, want one naming item 1", trial, err)
		}
	}
}

// TestCPUEngineWorkerErrorCancelsBatch: the first failing item stops
// the batch, so a batch whose item 0 is corrupt returns far sooner than
// the same batch of good items takes to process.
func TestCPUEngineWorkerErrorCancelsBatch(t *testing.T) {
	good := testItems(t, datasets.SlugPlantVillage, 1)[0]
	items := make([]Item, 64)
	for i := range items {
		items[i] = good
	}
	e := &CPUEngine{Platform: hw.A100(), Out: 224}
	start := time.Now()
	if _, err := e.ProcessBatch(items); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	items[0] = Item{Encoded: []byte("corrupt"), Format: imaging.FormatJPEG}
	start = time.Now()
	if _, err := e.ProcessBatch(items); err == nil {
		t.Fatal("corrupt batch accepted")
	}
	if stopped := time.Since(start); stopped > full/2 {
		t.Errorf("batch failing at item 0 took %v, the good batch %v: the rest still ran", stopped, full)
	}
}

// TestGPUFasterThanCPUAtScale: the paper's central preprocessing
// finding, DALI (priced by hw.GPUPreprocBatchSeconds) beats the real
// CPU engine per image on Plant Village at 224.
func TestGPUFasterThanCPUAtScale(t *testing.T) {
	items := testItems(t, datasets.SlugPlantVillage, 4)
	inPixels := make([]int, len(items))
	for i, it := range items {
		inPixels[i] = it.W * it.H
	}
	gpu := hw.GPUPreprocBatchSeconds(hw.A100(), inPixels, 224*224)
	rc, err := (&CPUEngine{Platform: hw.A100(), Out: 224}).ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if gpu >= rc.Seconds {
		t.Errorf("GPU preprocessing (%.5fs) not faster than CPU (%.5fs)", gpu, rc.Seconds)
	}
}

// TestTensorRecycling exercises the caller-recycled tensor path: with
// a Tensors pool attached and tensors handed back between batches, the
// output buffers are reused.
func TestTensorRecycling(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 3)
	e := &CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true,
		Tensors: &imaging.TensorPool{}}
	r1, err := e.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), r1.Tensors[0]...)
	e.Recycle(r1.Tensors)
	r2, err := e.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if r2.Tensors[0][i] != v {
			t.Fatalf("recycled batch diverges at %d", i)
		}
	}
	e.Recycle(r2.Tensors)
}

// TestConcurrentSingleThreadedCallers: many goroutines share one
// engine, as the serving layer's concurrent batches do. Under -race it
// pins that the scratch sync.Pool hands each caller its own buffers;
// every caller gets the single-caller tensors.
func TestConcurrentSingleThreadedCallers(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 2)
	e := &CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true}
	want, err := e.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.ProcessBatch(items)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range res.Tensors {
				for j, v := range res.Tensors[i] {
					if v != want.Tensors[i][j] {
						t.Errorf("tensor %d diverges at %d", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
