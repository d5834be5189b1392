package preprocess

import (
	"runtime"
	"slices"
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

func TestGPUEngineModeledSeconds(t *testing.T) {
	items := testItems(t, datasets.SlugPlantVillage, 4)
	e32 := &GPUEngine{Platform: hw.A100(), Out: 32}
	e224 := &GPUEngine{Platform: hw.A100(), Out: 224}
	r32, err := e32.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	r224, err := e224.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if r32.Seconds <= 0 || r224.Seconds <= r32.Seconds {
		t.Errorf("DALI 224 (%.5f) not slower than DALI 32 (%.5f)", r224.Seconds, r32.Seconds)
	}
	if r32.Tensors != nil {
		t.Error("GPU engine materialized without request")
	}
	if e224.Name() != "DALI 224" {
		t.Errorf("GPU engine name %q", e224.Name())
	}
}

func TestGPUEngineMaterialize(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 2)
	e := &GPUEngine{Platform: hw.V100(), Out: 48, Materialize: true}
	res, err := e.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tensors) != 2 || len(res.Tensors[0]) != 3*48*48 {
		t.Fatal("materialized GPU tensors wrong")
	}
}

func TestGPUEngineRequiresSizes(t *testing.T) {
	e := &GPUEngine{Platform: hw.A100(), Out: 32}
	if _, err := e.ProcessBatch([]Item{{Encoded: []byte("x")}}); err == nil {
		t.Error("item without dimensions accepted")
	}
	if _, err := e.ProcessBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
}

func TestGPUEngineDeviceBytes(t *testing.T) {
	e := &GPUEngine{Platform: hw.A100(), Out: 224}
	b1 := e.DeviceBytes(256*256, 1)
	b64 := e.DeviceBytes(256*256, 64)
	if b64 != 64*b1 {
		t.Errorf("device bytes not linear in batch: %d vs %d", b64, 64*b1)
	}
	if b1 <= 0 {
		t.Error("non-positive device bytes")
	}
}

func TestGPUFasterThanCPUAtScale(t *testing.T) {
	// The paper's central preprocessing finding: DALI beats CPU per
	// image. Compare modeled GPU seconds vs real CPU seconds per image
	// on Plant Village at 224.
	items := testItems(t, datasets.SlugPlantVillage, 4)
	gpu := &GPUEngine{Platform: hw.A100(), Out: 224}
	cpu := &CPUEngine{Platform: hw.A100(), Out: 224}
	rg, err := gpu.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cpu.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Seconds >= rc.Seconds {
		t.Errorf("GPU preprocessing (%.5fs) not faster than CPU (%.5fs)", rg.Seconds, rc.Seconds)
	}
}

func TestCPUEngineWorkersProduceIdenticalTensors(t *testing.T) {
	items := testItems(t, datasets.SlugPlantVillage, 6)
	serial := &CPUEngine{Platform: hw.A100(), Out: 48, Materialize: true}
	parallel := &CPUEngine{Platform: hw.A100(), Out: 48, Materialize: true, Workers: 4}
	rs, err := serial.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tensors) != len(rp.Tensors) {
		t.Fatalf("tensor counts differ: %d vs %d", len(rs.Tensors), len(rp.Tensors))
	}
	for i := range rs.Tensors {
		for j := range rs.Tensors[i] {
			if rs.Tensors[i][j] != rp.Tensors[i][j] {
				t.Fatalf("tensor %d differs at %d between serial and parallel", i, j)
			}
		}
	}
}

// TestPoolWorkersShareBatch pins what Workers buys without timing it
// (on a shared two-core host 4 workers do not reliably beat 1 on wall
// clock): a batch is spread over the pool's workers, and what they
// produce equals the serial run. Results go to an unbuffered channel
// nobody reads yet, so a worker parks on its first finished item; once
// 4 of the 8 jobs have left the queue, 4 distinct workers hold one each.
func TestPoolWorkersShareBatch(t *testing.T) {
	items := testItems(t, datasets.SlugPlantVillage, 8)
	eng := &CPUEngine{Platform: hw.A100(), Out: 48, Materialize: true}
	serial, err := eng.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	pool := NewPool(workers)
	out := make(chan itemResult)
	for i, it := range items {
		pool.jobs <- job{eng: eng, item: it, idx: i, out: out}
	}
	for deadline := time.Now().Add(10 * time.Second); len(pool.jobs) > len(items)-workers; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still queued: fewer than %d workers took one", len(pool.jobs), workers)
		}
	}
	seen := make([]bool, len(items))
	for range items {
		r := <-out
		if r.err != nil || r.skipped || seen[r.idx] {
			t.Fatalf("item %d: err %v, skipped %v, seen before %v", r.idx, r.err, r.skipped, seen[r.idx])
		}
		seen[r.idx] = true
		if !slices.Equal(r.tensor, serial.Tensors[r.idx]) {
			t.Errorf("tensor %d differs between the serial run and the pool", r.idx)
		}
	}
	pool.Close()
}

// TestCPUEngineWorkersDoNotDeflateModeledSeconds pins the Seconds
// semantics fix: the platform-modeled time is the sum of per-item CPU
// work, so running the same batch with 4 workers must not report ~1/4
// the modeled platform time the single-worker run reports. (The old
// code scaled the parallel wall-clock through the single-thread core
// model, silently deflating modeled platform cost by the worker count.)
func TestCPUEngineWorkersDoNotDeflateModeledSeconds(t *testing.T) {
	items := testItems(t, datasets.SlugPlantVillage, 8)
	serial := &CPUEngine{Platform: hw.A100(), Out: 224}
	parallel := &CPUEngine{Platform: hw.A100(), Out: 224, Workers: 4}
	defer parallel.Close()
	if _, err := serial.ProcessBatch(items); err != nil { // warm-up
		t.Fatal(err)
	}
	rs, err := serial.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := parallel.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate CPU work is worker-count independent up to host timing
	// noise; a 4x deflation would put the parallel figure near 0.25x.
	if rp.Seconds < rs.Seconds*0.5 {
		t.Errorf("4-worker modeled Seconds %.4f deflated vs single-worker %.4f",
			rp.Seconds, rs.Seconds)
	}
}

func TestCPUEngineWorkerErrorPropagates(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 3)
	items = append(items, Item{Encoded: []byte("corrupt"), Format: imaging.FormatJPEG})
	e := &CPUEngine{Platform: hw.A100(), Out: 32, Workers: 4}
	defer e.Close()
	if _, err := e.ProcessBatch(items); err == nil {
		t.Error("corrupt item in parallel batch accepted")
	}
}

// TestCPUEngineWorkerErrorDeterministic pins both halves of the
// cancellation fix: with several failing items scattered through a
// batch, the parallel path must always report the lowest-index failure
// (not whichever worker lost the race), and it must match the serial
// path's error.
func TestCPUEngineWorkerErrorDeterministic(t *testing.T) {
	good := testItems(t, datasets.SlugFruits360, 2)
	bad := Item{Encoded: []byte("corrupt"), Format: imaging.FormatJPEG}
	// Failures at 1, 4, 5 among 6 items; index 1 must always win.
	items := []Item{good[0], bad, good[1], good[0], bad, bad}
	serial := &CPUEngine{Platform: hw.A100(), Out: 32}
	_, wantErr := serial.ProcessBatch(items)
	if wantErr == nil {
		t.Fatal("serial run accepted corrupt batch")
	}
	e := &CPUEngine{Platform: hw.A100(), Out: 32, Workers: 4}
	defer e.Close()
	for trial := 0; trial < 10; trial++ {
		_, err := e.ProcessBatch(items)
		if err == nil {
			t.Fatal("parallel run accepted corrupt batch")
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("trial %d: parallel error %q, serial error %q", trial, err, wantErr)
		}
	}
}

// TestCPUEngineWorkerErrorCancelsBatch checks that the first error
// actually stops the remaining items instead of letting siblings run
// the batch to completion: with the failure at index 0 of a large
// batch, most trailing items should be skipped, so the parallel run
// must complete far faster than full processing would.
func TestCPUEngineWorkerErrorCancelsBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-sensitive; race instrumentation distorts it")
	}
	good := testItems(t, datasets.SlugPlantVillage, 1)[0]
	items := make([]Item, 64)
	items[0] = Item{Encoded: []byte("corrupt"), Format: imaging.FormatJPEG}
	for i := 1; i < len(items); i++ {
		items[i] = good
	}
	full := &CPUEngine{Platform: hw.A100(), Out: 224, Workers: 2}
	defer full.Close()
	allGood := make([]Item, len(items))
	for i := range allGood {
		allGood[i] = good
	}
	rFull, err := full.ProcessBatch(allGood)
	if err != nil {
		t.Fatal(err)
	}
	// The cancelled run skips nearly all real work; require a large
	// margin so scheduler noise cannot flake the assertion.
	start := time.Now()
	if _, err := full.ProcessBatch(items); err == nil {
		t.Fatal("corrupt batch accepted")
	}
	cancelled := time.Since(start).Seconds()
	if cancelled > rFull.WallSeconds*0.5 {
		t.Errorf("cancelled batch took %.4fs, full batch %.4fs — cancellation not effective",
			cancelled, rFull.WallSeconds)
	}
}

// TestProcessEachStreams checks the streaming contract: every index is
// delivered exactly once with a correctly shaped tensor, with no batch
// barrier required of the caller.
func TestProcessEachStreams(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 5)
	e := &CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true, Workers: 3}
	defer e.Close()
	seen := make([]int, len(items))
	res, err := e.ProcessEach(items, func(i int, tensor []float32) {
		seen[i]++
		if len(tensor) != 3*32*32 {
			t.Errorf("item %d: tensor length %d", i, len(tensor))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tensors != nil {
		t.Error("ProcessEach returned batch tensors")
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("item %d delivered %d times", i, n)
		}
	}
}

// TestSharedPoolAcrossEngines runs two engines over one shared Pool —
// the serving-layer configuration, where total preprocessing CPU is
// bounded globally rather than per model.
func TestSharedPoolAcrossEngines(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	items := testItems(t, datasets.SlugFruits360, 4)
	a := &CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true, Workers: 3, Pool: pool}
	b := &CPUEngine{Platform: hw.Jetson(), Out: 48, Materialize: true, Workers: 3, Pool: pool}
	ra, err := a.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Tensors) != 4 || len(rb.Tensors) != 4 {
		t.Fatal("shared-pool batches incomplete")
	}
	if len(ra.Tensors[0]) != 3*32*32 || len(rb.Tensors[0]) != 3*48*48 {
		t.Error("engines over a shared pool produced wrong shapes")
	}
	if pool.workers != 3 {
		t.Errorf("pool workers %d", pool.workers)
	}
}

// TestPoolCloseIdempotent pins the Close contract.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
	e := &CPUEngine{Platform: hw.A100(), Out: 32}
	e.Close() // engine that never started a pool
	e.Close()
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

// TestCPUGPUTensorParity pins two regressions: the GPU engine once
// used an aspect-distorting resize, and later ignored the perspective
// rectification for TaskPerspective (ground-camera) items entirely —
// so a deployment moving the CRSA feed from the CPU engine to DALI
// silently changed every tensor. Both engines must now produce
// bit-identical tensors for plain and perspective items alike.
func TestCPUGPUTensorParity(t *testing.T) {
	items := testItems(t, datasets.SlugFruits360, 3)
	ground := imaging.Synthesize(400, 300, imaging.KindSoil, stats.NewRNG(7))
	items = append(items, Item{Decoded: ground, W: ground.W, H: ground.H,
		Task: datasets.TaskPerspective})
	cpu := &CPUEngine{Platform: hw.A100(), Out: 48, Materialize: true}
	gpu := &GPUEngine{Platform: hw.A100(), Out: 48, Materialize: true}
	rc, err := cpu.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gpu.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Tensors) != len(items) || len(rg.Tensors) != len(items) {
		t.Fatalf("tensor counts %d / %d, want %d", len(rc.Tensors), len(rg.Tensors), len(items))
	}
	for i := range rc.Tensors {
		if len(rc.Tensors[i]) != len(rg.Tensors[i]) {
			t.Fatalf("item %d: tensor lengths %d vs %d", i, len(rc.Tensors[i]), len(rg.Tensors[i]))
		}
		for j := range rc.Tensors[i] {
			if rc.Tensors[i][j] != rg.Tensors[i][j] {
				t.Fatalf("item %d: CPU and GPU tensors diverge at %d: %v vs %v",
					i, j, rc.Tensors[i][j], rg.Tensors[i][j])
			}
		}
	}
}
