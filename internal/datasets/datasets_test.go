package datasets

import (
	"testing"
	"testing/quick"

	"harvest/internal/imaging"
	"harvest/internal/stats"
)

func TestAllMatchesTable2(t *testing.T) {
	specs := All()
	if len(specs) != 6 {
		t.Fatalf("got %d datasets, want 6", len(specs))
	}
	want := []struct {
		name    string
		classes int
		samples int
		modalW  int
		modalH  int
	}{
		{"Plant Village", 39, 43430, 256, 256},
		{"Weed Detection in Soybean", 4, 10635, 233, 233},
		{"Sugar Cane-Spittle Bug", 2, 10100, 61, 61},
		{"Fruits-360", 81, 40998, 100, 100},
		{"Corn Growth Stage", 23, 52198, 224, 224},
		{"CRSA", 0, 992, 3840, 2160},
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.Classes != w.classes || s.Samples != w.samples {
			t.Errorf("row %d: got %s/%d/%d, want %s/%d/%d",
				i, s.Name, s.Classes, s.Samples, w.name, w.classes, w.samples)
		}
		mw, mh := s.ModalSize()
		if mw != w.modalW || mh != w.modalH {
			t.Errorf("%s modal %dx%d, want %dx%d", s.Name, mw, mh, w.modalW, w.modalH)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName(SlugCRSA); err != nil {
		t.Error(err)
	}
	if _, err := ByName("Plant Village"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("no-such-dataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestEvalSetExcludesCRSA(t *testing.T) {
	es := EvalSet()
	if len(es) != 5 {
		t.Fatalf("eval set has %d datasets, want 5", len(es))
	}
	for _, s := range es {
		if s.Slug == SlugCRSA {
			t.Error("CRSA in eval set")
		}
	}
}

func TestRecordDeterminismAndRanges(t *testing.T) {
	spec, err := ByName(SlugWeedSoybean)
	if err != nil {
		t.Fatal(err)
	}
	ds := MustNew(spec, 7)
	for i := 0; i < 200; i++ {
		a, err := ds.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ds.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("record %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.W < 40 || a.W > 400 || a.H < 40 || a.H > 400 {
			t.Fatalf("record %d size %dx%d outside distribution bounds", i, a.W, a.H)
		}
		if a.Label < 0 || a.Label >= spec.Classes {
			t.Fatalf("record %d label %d outside [0,%d)", i, a.Label, spec.Classes)
		}
	}
}

func TestRecordOrderIndependence(t *testing.T) {
	spec, _ := ByName(SlugSpittleBug)
	a := MustNew(spec, 3)
	b := MustNew(spec, 3)
	// Access b in reverse order; records must match a's.
	for i := 99; i >= 0; i-- {
		rb, err := b.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := a.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("record %d depends on access order", i)
		}
	}
}

func TestRecordErrors(t *testing.T) {
	spec, _ := ByName(SlugFruits360)
	ds := MustNew(spec, 1)
	if _, err := ds.Record(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := ds.Record(ds.Len()); err == nil {
		t.Error("index == len accepted")
	}
}

func TestCRSAUnlabeled(t *testing.T) {
	spec, _ := ByName(SlugCRSA)
	ds := MustNew(spec, 1)
	rec, err := ds.Record(0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Label != -1 {
		t.Errorf("CRSA label %d, want -1", rec.Label)
	}
	if rec.W != 3840 || rec.H != 2160 {
		t.Errorf("CRSA frame %dx%d", rec.W, rec.H)
	}
	if spec.Task != TaskPerspective {
		t.Error("CRSA should require perspective preprocessing")
	}
}

func TestImageMatchesRecord(t *testing.T) {
	spec, _ := ByName(SlugSpittleBug)
	ds := MustNew(spec, 11)
	for i := 0; i < 5; i++ {
		rec, err := ds.Record(i)
		if err != nil {
			t.Fatal(err)
		}
		im, err := ds.Image(i)
		if err != nil {
			t.Fatal(err)
		}
		if im.W != rec.W || im.H != rec.H {
			t.Errorf("image %d is %dx%d, record says %dx%d", i, im.W, im.H, rec.W, rec.H)
		}
	}
}

func TestEncodedRoundTrip(t *testing.T) {
	spec, _ := ByName(SlugFruits360)
	ds := MustNew(spec, 5)
	data, rec, err := ds.Encoded(3)
	if err != nil {
		t.Fatal(err)
	}
	im, err := imaging.DecodeBytes(data, spec.Format)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != rec.W || im.H != rec.H {
		t.Errorf("decoded %dx%d, record %dx%d", im.W, im.H, rec.W, rec.H)
	}
}

func TestSpreadSizeModeDominates(t *testing.T) {
	d := SpreadSize{ModeW: 233, ModeH: 233, ModeFrac: 0.35, Sigma: 70, Min: 40, Max: 400}
	r := stats.NewRNG(5)
	exact := 0
	const n = 10000
	for i := 0; i < n; i++ {
		w, h := d.Sample(r)
		if w == 233 && h == 233 {
			exact++
		}
		if w < 40 || w > 400 || h < 40 || h > 400 {
			t.Fatalf("sample %dx%d outside bounds", w, h)
		}
	}
	frac := float64(exact) / n
	if frac < 0.30 || frac > 0.42 {
		t.Errorf("modal fraction %.3f, want ~0.35", frac)
	}
}

func TestSampleSizesDeterministic(t *testing.T) {
	d := SpreadSize{ModeW: 61, ModeH: 61, ModeFrac: 0.45, Sigma: 55, Min: 24, Max: 400}
	a := SampleSizes(d, 100, 9)
	b := SampleSizes(d, 100, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleSizes not deterministic")
		}
	}
}

func TestSizeDensityModeAnchor(t *testing.T) {
	// The Fig. 4a anchor: Weed Detection mode near 233x233.
	spec, _ := ByName(SlugWeedSoybean)
	samples := SampleSizes(spec.Sizes, 4000, 1)
	h := SizeDensity(samples, 401, 50)
	mx, my := h.Mode()
	if mx < 210 || mx > 260 || my < 210 || my > 260 {
		t.Errorf("weed-soybean 2D mode (%v,%v), want near 233", mx, my)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{},
		{Name: "x", Slug: "x", Samples: 0, Sizes: FixedSize{W: 1, H: 1}},
		{Name: "x", Slug: "x", Samples: 1, Classes: -1, Sizes: FixedSize{W: 1, H: 1}},
		{Name: "x", Slug: "x", Samples: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(Spec{}, 0); err == nil {
		t.Error("New accepted invalid spec")
	}
}

func TestMeanPixels(t *testing.T) {
	spec, _ := ByName(SlugPlantVillage)
	if got := spec.MeanPixels(100, 1); got != 256*256 {
		t.Errorf("fixed-size mean pixels %v, want %d", got, 256*256)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad spec did not panic")
		}
	}()
	MustNew(Spec{}, 0)
}

func TestRecordQuickProperties(t *testing.T) {
	spec, _ := ByName(SlugCornGrowth)
	ds := MustNew(spec, 17)
	f := func(raw uint16) bool {
		i := int(raw) % ds.Len()
		rec, err := ds.Record(i)
		if err != nil {
			return false
		}
		return rec.Index == i && rec.W == 224 && rec.H == 224 &&
			rec.Label >= 0 && rec.Label < spec.Classes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTaskPreprocString(t *testing.T) {
	if TaskNone.String() != "none" || TaskPerspective.String() != "perspective" || TaskTiling.String() != "tiling" {
		t.Error("TaskPreproc names wrong")
	}
	if TaskPreproc(9).String() == "" {
		t.Error("unknown TaskPreproc produced empty string")
	}
}
