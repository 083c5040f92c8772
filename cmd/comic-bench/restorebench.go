package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"comic"
	"comic/internal/experiments"
	"comic/internal/server"
)

// restoreBenchRecord is the machine-readable output of the restore
// experiment: one cold solve on a fresh stateful server, a snapshot, a
// simulated restart, and the same solve answered from the restored RR-set
// index. It is the serving layer's warm-start contract in benchmark form —
// the run *fails* if the restored solve's seeds diverge from the cold
// solve's, or if the restored server builds a single collection.
type restoreBenchRecord struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	K          int     `json:"k"`
	Seed       uint64  `json:"seed"`
	FixedTheta int     `json:"fixedTheta"`
	// Theta sums the RR-set budgets over the sandwich candidates of the
	// cold solve (the dataset GAPs need a lower and an upper collection).
	Theta int `json:"theta"`
	// ColdNs is the first solve on an empty state dir (build + select +
	// MC evaluation). SaveNs is the SaveState snapshot write. RestoreNs is
	// the "restart": server.New over the state dir, graphs re-registered
	// and index rehydrated. WarmNs is the same solve on the restored
	// server, answered without any collection build.
	ColdNs    int64 `json:"coldNs"`
	SaveNs    int64 `json:"saveNs"`
	RestoreNs int64 `json:"restoreNs"`
	WarmNs    int64 `json:"warmNs"`
	// RestoredCollections/RestoredBytes describe the rehydrated index
	// (exact coverage-index accounting); WarmBuilds must be 0.
	RestoredCollections int64   `json:"restoredCollections"`
	RestoredBytes       int64   `json:"restoredBytes"`
	WarmBuilds          int64   `json:"warmBuilds"`
	Seeds               []int32 `json:"seeds"`
}

// runRestoreBench measures cold solve vs restore+warm solve through the
// full persistent-state path, exactly what a deploy restart does.
func runRestoreBench(cfg experiments.Config) (*restoreBenchRecord, error) {
	name := "Flixster"
	if len(cfg.DatasetNames) > 0 {
		name = cfg.DatasetNames[0]
	}
	d, err := comic.DatasetByName(name, cfg.Scale, 1)
	if err != nil {
		return nil, err
	}
	k := cfg.K
	if k <= 0 {
		k = 10
	}
	theta := cfg.FixedTheta
	if theta <= 0 {
		theta = 20000
	}
	mc := cfg.MCRuns
	if mc <= 0 {
		mc = 1000
	}
	dir, err := os.MkdirTemp("", "comic-restore-bench-*")
	if err != nil {
		return nil, err
	}
	//comic:allow errlost best-effort cleanup of a bench-scoped temp dir
	defer os.RemoveAll(dir)

	sCfg := server.Config{
		Datasets: map[string]*comic.Dataset{name: d},
		MaxK:     max(500, k),
		StateDir: dir,
	}
	body := fmt.Sprintf(`{"dataset":%q,"k":%d,"seedsB":[1,2,3],"fixedTheta":%d,"evalRuns":%d,"seed":%d}`,
		name, k, theta, mc, cfg.Seed)
	solve := func(s *server.Server) (*solveRespRecord, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/selfinfmax", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("/v1/selfinfmax = %d: %s", rec.Code, rec.Body.String())
		}
		var out solveRespRecord
		if uerr := json.Unmarshal(rec.Body.Bytes(), &out); uerr != nil {
			return nil, uerr
		}
		return &out, nil
	}

	rec := &restoreBenchRecord{
		Experiment: "restore",
		Dataset:    name,
		Scale:      cfg.Scale,
		K:          k,
		Seed:       cfg.Seed,
		FixedTheta: theta,
	}

	// Cold solve on the fresh stateful server.
	s1, err := server.New(sCfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cold, err := solve(s1)
	if err != nil {
		s1.Close()
		return nil, err
	}
	rec.ColdNs = time.Since(t0).Nanoseconds()
	rec.Seeds = cold.Seeds
	for _, c := range cold.Candidates {
		rec.Theta += c.Theta
	}

	// Snapshot and "restart".
	t1 := time.Now()
	if serr := s1.SaveState(); serr != nil {
		s1.Close()
		return nil, serr
	}
	rec.SaveNs = time.Since(t1).Nanoseconds()
	s1.Close()

	t2 := time.Now()
	s2, err := server.New(sCfg)
	if err != nil {
		return nil, err
	}
	defer s2.Close()
	rec.RestoreNs = time.Since(t2).Nanoseconds()

	// Warm solve from the restored index.
	t3 := time.Now()
	warm, err := solve(s2)
	if err != nil {
		return nil, err
	}
	rec.WarmNs = time.Since(t3).Nanoseconds()
	st := s2.Index().Stats()
	rec.RestoredCollections = st.Restores
	rec.RestoredBytes = st.ResidentBytes
	rec.WarmBuilds = st.Misses

	// The contract this benchmark exists to enforce.
	if fmt.Sprint(warm.Seeds) != fmt.Sprint(cold.Seeds) {
		return nil, fmt.Errorf("restored seeds %v diverged from cold seeds %v", warm.Seeds, cold.Seeds)
	}
	if rec.WarmBuilds != 0 {
		return nil, fmt.Errorf("restored solve built %d collections, want 0 (restores %d, rejects %d)",
			rec.WarmBuilds, st.Restores, st.RestoreRejects)
	}
	if rec.RestoredCollections == 0 {
		return nil, fmt.Errorf("restore rehydrated nothing (rejects %d)", st.RestoreRejects)
	}
	return rec, nil
}

// solveRespRecord is the slice of a solve response the benchmarks consume.
type solveRespRecord struct {
	Seeds      []int32 `json:"seeds"`
	Candidates []struct {
		Theta int `json:"theta"`
	} `json:"candidates"`
}

func (r *restoreBenchRecord) render(w io.Writer) error {
	var werr error
	printf(w, &werr, "restore benchmark: %s scale %g, k=%d, theta %d, seed %d\n",
		r.Dataset, r.Scale, r.K, r.FixedTheta, r.Seed)
	printf(w, &werr, "  cold solve %v; snapshot save %v\n", time.Duration(r.ColdNs), time.Duration(r.SaveNs))
	printf(w, &werr, "  restart restore %v (%d collections, %d bytes); warm solve %v, %d builds\n",
		time.Duration(r.RestoreNs), r.RestoredCollections, r.RestoredBytes, time.Duration(r.WarmNs), r.WarmBuilds)
	printf(w, &werr, "  cold vs restore+warm: %.1fx\n",
		float64(r.ColdNs)/float64(r.RestoreNs+r.WarmNs))
	printf(w, &werr, "  seeds %v\n", r.Seeds)
	return werr
}
