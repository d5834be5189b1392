package datasets

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestMaterializeAndOpenStore(t *testing.T) {
	spec, err := ByName(SlugFruits360)
	if err != nil {
		t.Fatal(err)
	}
	ds := MustNew(spec, 77)
	dir := t.TempDir()
	m, err := Materialize(ds, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 5 {
		t.Fatalf("manifest entries %d", len(m.Entries))
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Manifest.Entries) != 5 || st.Manifest.Dataset != SlugFruits360 {
		t.Fatalf("store %+v", st.Manifest)
	}
	// Stored bytes identical to freshly generated ones.
	for i, e := range st.Manifest.Entries {
		stored, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatal(err)
		}
		rec := Record{Index: e.Index, W: e.W, H: e.H, Label: e.Label}
		fresh, frec, err := ds.Encoded(i)
		if err != nil {
			t.Fatal(err)
		}
		if rec != frec {
			t.Fatalf("sample %d record mismatch: %+v vs %+v", i, rec, frec)
		}
		if !bytes.Equal(stored, fresh) {
			t.Fatalf("sample %d bytes differ from generator", i)
		}
	}
}

func TestMaterializeClampsCount(t *testing.T) {
	spec := Spec{Name: "t", Slug: SlugFruits360, Classes: 2, Samples: 3,
		Sizes: FixedSize{W: 8, H: 8}, Format: ByNameMust(SlugFruits360).Format}
	ds := MustNew(spec, 1)
	m, err := Materialize(ds, t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 3 {
		t.Errorf("entries %d, want clamped 3", len(m.Entries))
	}
	if _, err := Materialize(ds, t.TempDir(), 0); err == nil {
		t.Error("zero count accepted")
	}
}

// ByNameMust is a test helper.
func ByNameMust(name string) Spec {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

func TestOpenStoreErrors(t *testing.T) {
	if _, err := OpenStore(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	// Corrupt manifest.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
	// Unknown dataset slug.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, ManifestName),
		[]byte(`{"dataset":"ghost","format":"jpeg"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir2); err == nil {
		t.Error("unknown dataset accepted")
	}
	// Format mismatch.
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, ManifestName),
		[]byte(`{"dataset":"fruits-360","format":"ppm"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir3); err == nil {
		t.Error("format mismatch accepted")
	}
	// Invalid entry.
	dir4 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir4, ManifestName),
		[]byte(`{"dataset":"fruits-360","format":"jpeg","entries":[{"file":"","w":0,"h":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir4); err == nil {
		t.Error("invalid entry accepted")
	}
}
