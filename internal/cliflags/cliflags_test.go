package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCampaignRegistersSharedTrio(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Campaign(fs)
	if c.Wanted() {
		t.Fatal("freshly registered flags already want a campaign")
	}
	if err := fs.Parse([]string{"-campaign-json", "out.json", "-campaign-states", "7"}); err != nil {
		t.Fatal(err)
	}
	if c.Run || c.States != 7 || c.JSON != "out.json" {
		t.Fatalf("parse mismatch: %+v", c)
	}
	// -campaign-json alone implies a run.
	if !c.Wanted() {
		t.Fatal("a JSON path must imply a campaign run")
	}

	fs2 := flag.NewFlagSet("test2", flag.ContinueOnError)
	c2 := Campaign(fs2)
	if err := fs2.Parse([]string{"-campaign"}); err != nil {
		t.Fatal(err)
	}
	if !c2.Run || !c2.Wanted() {
		t.Fatal("-campaign not honored")
	}

	var nilCamp *CampaignFlags
	if nilCamp.Wanted() {
		t.Fatal("nil receiver wants a campaign")
	}
}

func TestSurviveFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Synth(fs)
	if err := fs.Parse([]string{"-survive", "2", "-workers", "3", "-cache-dir", t.TempDir(), "-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if s.Survive != 2 || s.Workers != 3 {
		t.Fatalf("parse mismatch: %+v", s)
	}
	// -no-cache wins over an explicit -cache-dir.
	if store, err := s.OpenCache(); store != nil || err != nil {
		t.Fatalf("-no-cache opened a store: %v, %v", store, err)
	}
}

func TestWriteJSON(t *testing.T) {
	c := &CampaignFlags{}
	if err := c.WriteJSON(map[string]int{"x": 1}); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	c.JSON = filepath.Join(t.TempDir(), "rep.json")
	if err := c.WriteJSON(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x": 1`) || !strings.HasSuffix(string(data), "\n") {
		t.Fatalf("malformed report file: %q", data)
	}
}

func TestSpecSelect(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Spec(fs)
	if err := fs.Parse([]string{"-bench", "d16_industrial"}); err != nil {
		t.Fatal(err)
	}
	spec, err := s.Select("")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "d16_industrial" || len(spec.Islands) < 2 {
		t.Fatalf("default selection: %s with %d islands", spec.Name, len(spec.Islands))
	}
	for _, method := range []string{"logical", "communication", "spectral"} {
		s.Method, s.Islands = method, 3
		spec, err := s.Select("")
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(spec.Islands) != 3 {
			t.Fatalf("%s: %d islands, want 3", method, len(spec.Islands))
		}
	}
	s.Method = "bogus"
	if _, err := s.Select(""); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := s.Select(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing spec file accepted")
	}
}
