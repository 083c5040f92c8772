package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"comic/internal/experiments"
)

func tinyConfig() experiments.Config {
	return experiments.Config{
		Scale:        0.01,
		Seed:         7,
		K:            3,
		OppositeSize: 5,
		MCRuns:       100,
		FixedTheta:   300,
		DatasetNames: []string{"Flixster"},
	}
}

func TestRunAllIDs(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "table4", "table5-7", "table8",
		"fig5", "fig6", "fig7a", "fig8"}
	for _, id := range ids {
		tables, err := run(id, tinyConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tab := range tables {
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s rendered empty output", id)
			}
		}
	}
}

func TestRunFig4(t *testing.T) {
	cfg := tinyConfig()
	cfg.FixedTheta = 0
	cfg.MaxTheta = 5000
	tables, err := run("fig4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig4 tables = %d", len(tables))
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := run("table99", tinyConfig()); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestBatchBenchRecord(t *testing.T) {
	cfg := tinyConfig()
	rec, err := runBatchBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BatchNs <= 0 || rec.SequentialNs <= 0 {
		t.Fatalf("benchmark record has empty measurements: %+v", rec)
	}
	// The B-indifferent k-sweep contract: exactly one build, the other
	// k−1 queries answered warm — on both execution paths.
	if rec.BatchBuilds != 1 || rec.BatchHits != int64(rec.SweepK-1) {
		t.Fatalf("batch sweep = %d builds / %d hits, want 1 / %d", rec.BatchBuilds, rec.BatchHits, rec.SweepK-1)
	}
	if rec.SequentialBuilds != 1 || rec.SequentialHits != int64(rec.SweepK-1) {
		t.Fatalf("sequential sweep = %d builds / %d hits, want 1 / %d", rec.SequentialBuilds, rec.SequentialHits, rec.SweepK-1)
	}
	if len(rec.Seeds) != rec.SweepK {
		t.Fatalf("got %d seeds, want %d", len(rec.Seeds), rec.SweepK)
	}

	path := filepath.Join(t.TempDir(), "BENCH_batch.json")
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
	var back batchBenchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bad JSON in %s: %v", path, err)
	}
	if back.Experiment != "batch" || back.BatchNs != rec.BatchNs || back.SweepK != rec.SweepK {
		t.Fatalf("round-tripped record differs: %+v vs %+v", back, *rec)
	}
}

func TestSelfInfMaxBenchRecord(t *testing.T) {
	cfg := tinyConfig()
	rec, err := runSelfInfMaxBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Theta <= 0 || rec.ColdNs <= 0 || rec.WarmNs <= 0 || rec.GenNs <= 0 {
		t.Fatalf("benchmark record has empty measurements: %+v", rec)
	}
	if rec.CollectionBytes <= 0 {
		t.Fatalf("collectionBytes = %d, want > 0", rec.CollectionBytes)
	}
	if len(rec.Seeds) != cfg.K {
		t.Fatalf("got %d seeds, want %d", len(rec.Seeds), cfg.K)
	}
	// FixedTheta was set, so no KPT phase ran.
	if rec.KPTNs != 0 {
		t.Fatalf("kptNs = %d with FixedTheta set, want 0", rec.KPTNs)
	}

	path := filepath.Join(t.TempDir(), "BENCH_selfinfmax.json")
	var buf bytes.Buffer
	if rerr := rec.render(&buf); rerr != nil {
		t.Fatal(rerr)
	}
	if rerr := writeRecord(path, rec); rerr != nil {
		t.Fatal(rerr)
	}
	if buf.Len() == 0 {
		t.Fatal("render printed nothing")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("bad JSON in %s: %v", path, err)
	}
	if back.Experiment != "selfinfmax" || back.Theta != rec.Theta ||
		back.ColdNs != rec.ColdNs || back.CollectionBytes != rec.CollectionBytes {
		t.Fatalf("round-tripped record differs: %+v vs %+v", back, *rec)
	}
}
