package experiments

import (
	"strings"
	"testing"
)

func TestExtensionArtifactsRun(t *testing.T) {
	for _, id := range ExtensionIDs() {
		a, err := RunAny(id, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(a.Render()) < 100 {
			t.Errorf("%s rendered too little", id)
		}
	}
}

func TestRunAnyDispatchesPaperArtifacts(t *testing.T) {
	a, err := RunAny("table2", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "table2" {
		t.Errorf("dispatched to %s", a.ID)
	}
	if _, err := RunAny("nope", quickOpts()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestEnergyContent(t *testing.T) {
	a, err := Energy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := a.Render()
	for _, want := range []string{"Jetson", "25.00", "img/J", "best images/joule"} {
		if !strings.Contains(out, want) {
			t.Errorf("energy missing %q", want)
		}
	}
	// 3 platforms x 4 models = 12 rows.
	if a.Tables[0].NumRows() != 12 {
		t.Errorf("energy rows %d, want 12", a.Tables[0].NumRows())
	}
	// ViT_Tiny must be most efficient on the 25W Jetson.
	if !strings.Contains(out, "ViT_Tiny: best images/joule on Jetson") {
		t.Error("Jetson not winning ViT_Tiny images/joule")
	}
}

func TestPredictionContent(t *testing.T) {
	a, err := Prediction(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := a.Render()
	for _, want := range []string{"Planner recommendations", "online 60QPS cloud", "real-time 30FPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("prediction missing %q", want)
		}
	}
}

func TestScaleOutContent(t *testing.T) {
	a, err := ScaleOut(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := a.Render()
	for _, want := range []string{"Replicas", "A100", "V100", "Util%"} {
		if !strings.Contains(out, want) {
			t.Errorf("scaleout missing %q", want)
		}
	}
	if len(a.Tables) != 2 {
		t.Errorf("scaleout tables %d, want 2", len(a.Tables))
	}
}
