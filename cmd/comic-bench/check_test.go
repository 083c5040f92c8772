package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRestoreBenchRecord(t *testing.T) {
	cfg := tinyConfig()
	rec, err := runRestoreBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ColdNs <= 0 || rec.RestoreNs <= 0 || rec.WarmNs <= 0 || rec.SaveNs <= 0 {
		t.Fatalf("benchmark record has empty measurements: %+v", rec)
	}
	// The acceptance contract the experiment enforces internally.
	if rec.WarmBuilds != 0 {
		t.Fatalf("warm builds = %d, want 0", rec.WarmBuilds)
	}
	if rec.RestoredCollections == 0 || rec.RestoredBytes <= 0 {
		t.Fatalf("nothing restored: %+v", rec)
	}
	if len(rec.Seeds) != cfg.K {
		t.Fatalf("got %d seeds, want %d", len(rec.Seeds), cfg.K)
	}

	path := filepath.Join(t.TempDir(), "BENCH_restore.json")
	var buf bytes.Buffer
	if rerr := rec.render(&buf); rerr != nil {
		t.Fatal(rerr)
	}
	if rerr := writeRecord(path, rec); rerr != nil {
		t.Fatal(rerr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back restoreBenchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bad JSON in %s: %v", path, err)
	}
	if back.Experiment != "restore" || back.Theta != rec.Theta || back.RestoredBytes != rec.RestoredBytes {
		t.Fatalf("round-tripped record differs: %+v vs %+v", back, *rec)
	}
}

func TestRestoreBenchDeterministicAcrossRuns(t *testing.T) {
	// The trajectory contract: two runs with the same config agree on
	// every deterministic field (this is what lets CI diff a fresh record
	// against the committed file).
	cfg := tinyConfig()
	a, err := runRestoreBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRestoreBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta != b.Theta || a.RestoredCollections != b.RestoredCollections ||
		a.RestoredBytes != b.RestoredBytes || len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("nondeterministic records:\n%+v\n%+v", a, b)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed %d differs: %v vs %v", i, a.Seeds, b.Seeds)
		}
	}
}

// writeCheckFile writes v as JSON into dir and returns the path.
func writeCheckFile(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCheckMatchingRecords(t *testing.T) {
	dir := t.TempDir()
	rec := map[string]any{
		"experiment": "restore", "theta": 40000, "coldNs": 111,
		"seeds": []int{0, 1, 3},
	}
	fresh := writeCheckFile(t, dir, "fresh.json", rec)
	committed := writeCheckFile(t, dir, "committed.json", rec)
	var out, errOut bytes.Buffer
	if err := runCheck(fresh, committed, &out, &errOut); err != nil {
		t.Fatalf("identical records flagged: %v", err)
	}
	if !strings.Contains(out.String(), "matches") {
		t.Fatalf("no match confirmation: %q", out.String())
	}
}

func TestRunCheckTimingDriftWarnsOnly(t *testing.T) {
	dir := t.TempDir()
	fresh := writeCheckFile(t, dir, "fresh.json", map[string]any{
		"theta": 40000, "coldNs": 999999, "saveNs": 5,
	})
	committed := writeCheckFile(t, dir, "committed.json", map[string]any{
		"theta": 40000, "coldNs": 111, "saveNs": 7,
	})
	var out, errOut bytes.Buffer
	if err := runCheck(fresh, committed, &out, &errOut); err != nil {
		t.Fatalf("timing drift must not fail the check: %v", err)
	}
	if got := errOut.String(); !strings.Contains(got, "coldNs") || !strings.Contains(got, "warn") {
		t.Fatalf("timing drift not warned: %q", got)
	}
}

func TestRunCheckFailsOnSeedAndThetaDivergence(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		fresh map[string]any
		field string
	}{
		{"seeds", map[string]any{"theta": 40000, "seeds": []int{0, 2, 3}}, "seeds[1]"},
		{"theta", map[string]any{"theta": 39999, "seeds": []int{0, 1, 3}}, "theta"},
		{"seed-count", map[string]any{"theta": 40000, "seeds": []int{0, 1}}, "seeds"},
		{"missing-field", map[string]any{"seeds": []int{0, 1, 3}}, "theta"},
	}
	committed := writeCheckFile(t, dir, "committed.json", map[string]any{
		"theta": 40000, "seeds": []int{0, 1, 3},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := writeCheckFile(t, dir, "fresh-"+tc.name+".json", tc.fresh)
			var out, errOut bytes.Buffer
			err := runCheck(fresh, committed, &out, &errOut)
			if err == nil {
				t.Fatal("divergence not detected")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error does not name %q: %v", tc.field, err)
			}
		})
	}
}

func TestRunCheckUnreadableFiles(t *testing.T) {
	dir := t.TempDir()
	good := writeCheckFile(t, dir, "good.json", map[string]any{"x": 1})
	var out, errOut bytes.Buffer
	if err := runCheck(filepath.Join(dir, "nope.json"), good, &out, &errOut); err == nil {
		t.Fatal("missing fresh file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCheck(good, bad, &out, &errOut); err == nil {
		t.Fatal("torn committed file accepted")
	}
}
