package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"comic/internal/datasets"
	"comic/internal/graph"
	"comic/internal/rrset"
)

// Persistent state layer. A server restart used to throw away the entire
// RR-set index and every dynamically uploaded graph: the first query after
// a deploy paid the full cold-solve cost, and /v1/graphs uploads vanished.
// TIM-style RR-set collections are expensive to build and cheap to reuse —
// the amortization the whole serving layer is built on — so they are
// exactly the state worth persisting.
//
// State-directory layout (Config.StateDir):
//
//	<state>/
//	  graphs/
//	    <digest(name)>.json   registry entry: name, cache ID, GAP, source,
//	                          created time, graph fingerprint
//	    <digest(name)>.edges  text edge list (dynamically added graphs only;
//	                          preloaded datasets are rebuilt from Config)
//	  index/                  the local RR-index snapshot scope (below)
//
// RR-index snapshot layout. Index entries persist through a SnapshotStore
// in one of two scopes, each a manifest plus one object per entry:
//
//	scope      store                        prefix                    entries
//	local      DirStore at <state>/index    ""                        every graph-keyed one
//	published  the shared store (store.go)  graphs/<digest(graphID)>  one graph version's
//
//	<prefix>/MANIFEST.json      entry list in LRU order (MRU first); a
//	                            published manifest also records its
//	                            versioned GraphID
//	<prefix>/<digest(key)>.rrs  one rrset.Snapshot per resident collection
//
// One writer (saveEntries) and one reader (loadEntries) serve both scopes.
// Every object is written atomically (SnapshotStore.Put), entry objects
// before the manifest and pruning after it, so a crash or a failed write
// leaves the previous snapshot visible — a reader never observes a torn
// object or a manifest naming an unwritten one. Entry objects are
// content-addressed by cache key and collections are deterministic per key,
// so a save reuses the objects it already wrote; objects of evicted or
// dropped entries are pruned.
//
// Restore is strict where it matters and lenient where it must be: a
// corrupt, truncated, or wrong-version entry object — or one whose key,
// graph identity, or node/edge counts don't match — is skipped and counted
// (IndexStats.RestoreRejects), never served and never fatal to boot.

const (
	manifestName     = "MANIFEST.json"
	manifestVersion  = 1
	snapshotSuffix   = ".rrs"
	graphMetaSuffix  = ".json"
	graphEdgesSuffix = ".edges"
)

// snapshotFileName is the content address of a cache key in a snapshot
// scope: 128 digest bits keep accidental collisions out of reach, and the
// loader still verifies the full key recorded inside the object.
func snapshotFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + snapshotSuffix
}

// objectName joins a scope's prefix ("" = the store's root) and a name.
func objectName(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "/" + name
}

// graphFileBase names a registry entry's files after its (client-chosen)
// graph name without trusting that name as a path component.
func graphFileBase(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:16])
}

// graphFingerprint digests a graph's full content — node count, edge
// count, and every (src, dst, probability-bits) triple. Cache IDs are only
// reused across restarts when the fingerprint matches: node/edge counts
// alone cannot distinguish two same-shaped graphs (e.g. the same dataset
// rebuilt under a different seed), and reusing a cache ID across different
// graphs would silently serve wrong RR sets.
func graphFingerprint(g *graph.Graph) string {
	h := sha256.New()
	var b [20]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(g.N()))
	binary.LittleEndian.PutUint64(b[8:16], uint64(g.M()))
	//comic:allow errlost hash.Hash.Write is documented to never return an error
	h.Write(b[:16])
	for eid := int32(0); eid < int32(g.M()); eid++ {
		u, v := g.EdgeEndpoints(eid)
		binary.LittleEndian.PutUint32(b[:4], uint32(u))
		binary.LittleEndian.PutUint32(b[4:8], uint32(v))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(g.Prob(eid)))
		//comic:allow errlost hash.Hash.Write is documented to never return an error
		h.Write(b[:16])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFileAtomic writes fill's output to path via a temp file in the same
// directory plus rename, fsyncing before the rename. Readers either see
// the old content or the complete new content; a crash (or a fill error)
// leaves the old file untouched.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = fill(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		//comic:allow errlost best-effort temp cleanup; the write error is what matters
		os.Remove(tmp)
	}
	return err
}

// --- RR-set index snapshots ---

// manifest orders one scope's snapshot: entries are listed most-recently-
// used first, so a restore under a smaller byte budget keeps the hottest
// prefix and recreates the exact LRU order. GraphID is the scope: empty
// for the local snapshot, the full versioned ID a published prefix digest
// was derived from, which adopters verify against the version they serve.
type manifest struct {
	Version int             `json:"version"`
	GraphID string          `json:"graphID,omitempty"`
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	File    string `json:"file"`
	GraphID string `json:"graphID"`
	Bytes   int64  `json:"bytes"`
}

// SaveSnapshot persists every resident collection whose cache key names a
// graph by GraphID (pointer-identity keys are meaningless across
// processes) to dir, one checksummed object per entry plus a manifest
// recording the LRU order (saveEntries' rules), and removes temp files a
// crashed writer left there. Concurrent snapshot calls are serialized.
// Failures are counted in IndexStats.SnapshotErrors.
func (x *Index) SaveSnapshot(dir string) error {
	store, err := x.openSnapshotDir(dir)
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	if err == nil {
		_, err = x.saveEntries(store, "", "")
	}
	if err == nil {
		//comic:allow lockorder snapMu exists to serialize snapshot I/O; the hot path takes mu, never snapMu
		sweepTempFiles(dir)
	}
	x.mu.Lock()
	if err != nil {
		x.stats.SnapshotErrors++
	} else {
		x.stats.Snapshots++
	}
	x.mu.Unlock()
	return err
}

// LoadSnapshot rehydrates the index from the snapshot in dir, resolving
// each entry's GraphID through graphs (cache ID → live graph), under
// loadEntries' rules. A missing snapshot is not an error — the index
// simply starts cold. The number of restored collections is returned.
func (x *Index) LoadSnapshot(dir string, graphs map[string]*graph.Graph) (int, error) {
	store, err := x.openSnapshotDir(dir)
	if err != nil {
		return 0, err
	}
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	return x.loadEntries(store, "", "", graphs)
}

// openSnapshotDir opens dir as the local snapshot store and remembers it,
// so DropGraph deletes dead entries' objects there.
func (x *Index) openSnapshotDir(dir string) (*DirStore, error) {
	store, err := NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	x.mu.Lock()
	x.snapStore = store
	x.mu.Unlock()
	return store, nil
}

// sweepTempFiles removes the temp files a crashed writer left in dir: New
// sweeps the state's graphs directory and SaveSnapshot its index directory.
// Only the state directory, which one process owns, is swept: in a shared
// store a temp file may be another node's write in flight.
func sweepTempFiles(dir string) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			//comic:allow errlost best-effort prune; LoadSnapshot tolerates strays
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}

// saveEntries writes the resident collections of scope graphID ("" = every
// graph-keyed entry) to store under prefix and returns how many entries
// the new manifest lists. The manifest is written even when it lists
// none. An entry object is reused, not rewritten, when the previous
// manifest lists it and the store still holds it; every other listed
// entry is written before the manifest. Only then are the .rrs objects
// the new manifest does not list pruned, so a failure at any step leaves
// the previous manifest and every object it lists intact. Called with
// snapMu held.
func (x *Index) saveEntries(store SnapshotStore, prefix, graphID string) (int, error) {
	// Copy the scope's entries under the lock; collections are immutable,
	// so the (possibly slow) writes below need no lock.
	x.mu.Lock()
	var list []indexEntry
	for el := x.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*indexEntry); e.graphID != "" && (graphID == "" || e.graphID == graphID) {
			list = append(list, *e)
		}
	}
	x.mu.Unlock()

	stored, err := store.List(prefix)
	if err != nil {
		return 0, err
	}
	have := make(map[string]bool, len(stored))
	for _, obj := range stored {
		have[obj] = true
	}
	prev := map[string]bool{}
	if old, ok, _ := readManifest(store, prefix, graphID); ok {
		for _, me := range old.Entries {
			prev[me.File] = true
		}
	}

	man := manifest{Version: manifestVersion, GraphID: graphID}
	keep := map[string]bool{}
	for _, e := range list {
		name := snapshotFileName(e.key)
		obj := objectName(prefix, name)
		if keep[obj] {
			continue // digest collision between live keys: keep the hotter entry
		}
		keep[obj] = true
		if !prev[name] || !have[obj] {
			snap := &rrset.Snapshot{Key: e.key, GraphID: e.graphID, GraphN: e.graph.N(), GraphM: e.graph.M(),
				Collection: e.col}
			if err := store.Put(obj, func(w io.Writer) error {
				_, err := snap.WriteTo(w)
				return err
			}); err != nil {
				return 0, err
			}
		}
		man.Entries = append(man.Entries, manifestEntry{File: name, GraphID: e.graphID, Bytes: e.bytes})
	}
	if err := store.Put(objectName(prefix, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	}); err != nil {
		return 0, err
	}
	for _, obj := range stored {
		if strings.HasSuffix(obj, snapshotSuffix) && !keep[obj] {
			//comic:allow errlost best-effort prune; LoadSnapshot tolerates strays
			store.Delete(obj)
		}
	}
	return len(man.Entries), nil
}

// readManifest fetches the manifest under prefix. ok reports whether it
// decoded with the current version and scope graphID; err is the store's,
// wrapping fs.ErrNotExist when there is no manifest.
func readManifest(store SnapshotStore, prefix, graphID string) (man manifest, ok bool, err error) {
	rc, err := store.Get(objectName(prefix, manifestName))
	if err != nil {
		return man, false, err
	}
	defer rc.Close()
	derr := json.NewDecoder(rc).Decode(&man)
	return man, derr == nil && man.Version == manifestVersion && man.GraphID == graphID, nil
}

// readSnapshotObject decodes one entry object.
func readSnapshotObject(store SnapshotStore, name string) (*rrset.Snapshot, error) {
	rc, err := store.Get(name)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return rrset.ReadCollection(rc)
}

// loadEntries admits the entries the manifest of scope graphID under
// prefix lists, resolving each entry's GraphID through graphs, and returns
// how many collections it restored. Entries are admitted most-recently-
// used first while they fit the byte budget and inserted so the saved LRU
// order is preserved exactly; entries already resident are skipped
// uncounted and never replaced.
//
// A torn, wrong-version or out-of-scope manifest, an entry keyed to a graph
// graphs lacks, an object that is missing, unreadable, corrupt, truncated
// or wrong-version or whose key, graph identity or node/edge counts
// disagree, and every entry from the first one beyond the budget on, are
// skipped and counted in IndexStats.RestoreRejects; none can fail the
// whole load. An object the reader rejects is deleted, so the next save
// rewrites it instead of re-referencing it forever. Budget and
// unknown-graph rejections keep their objects: those entries are intact
// and may become restorable again (a larger budget, a dataset added back
// to the config). Called with snapMu held.
func (x *Index) loadEntries(store SnapshotStore, prefix, graphID string, graphs map[string]*graph.Graph) (int, error) {
	man, ok, err := readManifest(store, prefix, graphID)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if !ok {
		// A torn or foreign manifest forfeits the snapshot, not the boot.
		x.mu.Lock()
		x.stats.RestoreRejects++
		x.mu.Unlock()
		return 0, nil
	}

	var accepted []*indexEntry
	var acceptedBytes, rejects int64
	budgetFull := false
	for _, me := range man.Entries {
		g, known := graphs[me.GraphID]
		if budgetFull || !known {
			rejects++
			continue
		}
		obj := objectName(prefix, me.File)
		snap, err := readSnapshotObject(store, obj)
		if err != nil || snap.GraphID != me.GraphID || snapshotFileName(snap.Key) != me.File ||
			snap.GraphN != g.N() || snap.GraphM != g.M() {
			rejects++
			//comic:allow errlost best-effort; a surviving bad object is re-rejected next load
			store.Delete(obj)
			continue
		}
		x.mu.Lock()
		_, resident := x.entries[snap.Key]
		x.mu.Unlock()
		if resident {
			continue
		}
		e := &indexEntry{key: snap.Key, graphID: me.GraphID, col: snap.Collection, graph: g,
			bytes: snap.Collection.Bytes()}
		if x.maxBytes > 0 && acceptedBytes+e.bytes > x.maxBytes {
			// The restored set is always the most-recently-used prefix:
			// once an entry exceeds the budget, nothing colder is admitted
			// either, exactly as if the rest had been evicted.
			budgetFull = true
			rejects++
			continue
		}
		acceptedBytes += e.bytes
		accepted = append(accepted, e)
	}

	x.mu.Lock()
	defer x.mu.Unlock()
	restored := 0
	for i := len(accepted) - 1; i >= 0; i-- { // coldest first: PushFront rebuilds MRU order
		e := accepted[i]
		if _, ok := x.entries[e.key]; ok {
			continue // a racing build landed while we read the store
		}
		x.entries[e.key] = x.lru.PushFront(e)
		x.bytes += e.bytes
		restored++
	}
	x.evictOverBudgetLocked()
	x.stats.Restores += int64(restored)
	x.stats.RestoreRejects += rejects
	return restored, nil
}

// --- graph registry persistence ---

// graphMeta is the persisted identity of one registry entry. The cache ID
// (and its generation counter) is the part that matters: index snapshot
// entries are keyed by it, so restoring a graph under its old cache ID
// re-links the restored collections, while a graph whose content changed
// (fingerprint mismatch) gets a fresh ID and its stale collections are
// rejected at load.
type graphMeta struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	CacheID string `json:"cacheID"`
	Gen     int64  `json:"gen"`
	// GraphGen is the entry's edit generation — how many edge-update
	// PATCH batches have been applied since registration. A patched graph
	// (GraphGen > 0) always persists its edge list, even for preloaded
	// datasets: the configured loader only knows generation 0.
	GraphGen int64      `json:"graphGen,omitempty"`
	Source   string     `json:"source"`
	GAP      gapPayload `json:"gap"`
	// Regime is the GAP's classification at persist time, recorded for
	// operators inspecting the state directory. Restore recomputes the
	// regime from the GAP (the single source of truth), so a hand-edited
	// or pre-regime meta file loads fine.
	Regime      string    `json:"regime,omitempty"`
	Created     time.Time `json:"created"`
	Nodes       int       `json:"nodes"`
	Edges       int       `json:"edges"`
	Fingerprint string    `json:"fingerprint"`
	HasEdgeFile bool      `json:"hasEdgeFile"`
}

// persistGraph writes the meta file for version v of entry e and, when
// the graph cannot be rebuilt from Config (dynamically added, or patched
// past generation 0), its edge list. Any stale edge file under the same
// name (a deleted upload whose name a preloaded dataset now owns) is
// removed. Called with registry.persistMu held (never registry.mu — the
// fingerprint and fsyncs must not stall the query path); no-op without a
// state directory.
func (r *registry) persistGraph(e *regEntry, v *graphVersion) error {
	if r.stateDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.stateDir, 0o755); err != nil {
		return err
	}
	base := graphFileBase(e.name)
	meta := graphMeta{
		Version:     1,
		Name:        e.name,
		CacheID:     e.cacheID,
		Gen:         e.gen,
		GraphGen:    v.gen,
		Source:      e.source,
		GAP:         gapPayload{QA0: v.d.GAP.QA0, QAB: v.d.GAP.QAB, QB0: v.d.GAP.QB0, QBA: v.d.GAP.QBA},
		Regime:      v.d.EffectiveRegime().String(),
		Created:     e.created,
		Nodes:       v.d.Graph.N(),
		Edges:       v.d.Graph.M(),
		Fingerprint: v.fingerprint,
		HasEdgeFile: e.source != "preloaded" || v.gen > 0,
	}
	if meta.HasEdgeFile {
		if err := writeFileAtomic(filepath.Join(r.stateDir, base+graphEdgesSuffix), func(w io.Writer) error {
			return graph.WriteEdgeList(w, v.d.Graph)
		}); err != nil {
			return err
		}
	} else {
		//comic:allow errlost best-effort; a stale edge file is shadowed by the meta's HasEdgeFile=false
		os.Remove(filepath.Join(r.stateDir, base+graphEdgesSuffix))
	}
	return writeFileAtomic(filepath.Join(r.stateDir, base+graphMetaSuffix), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	})
}

// unpersistGraphOwned deletes e's persisted files — so a deleted graph can
// never be resurrected by a restart — but only if they still belong to e:
// a newer registration under the same name owns the same file paths, and
// cleanup deferred across a register/delete/re-register race must never
// destroy the newer graph's state. The on-disk meta's CacheID is the
// ownership record; an unreadable or missing meta means nothing is
// restorable under this name, so the files are removed unconditionally.
// Called with registry.persistMu held.
func (r *registry) unpersistGraphOwned(e *regEntry) {
	if r.stateDir == "" {
		return
	}
	base := graphFileBase(e.name)
	metaPath := filepath.Join(r.stateDir, base+graphMetaSuffix)
	if data, err := os.ReadFile(metaPath); err == nil {
		var m graphMeta
		if json.Unmarshal(data, &m) == nil && m.CacheID != e.cacheID {
			return // a newer registration owns these files
		}
	}
	//comic:allow errlost best-effort; the meta is removed first, so a surviving edge file is unrestorable
	os.Remove(metaPath)
	//comic:allow errlost best-effort; the meta is removed first, so a surviving edge file is unrestorable
	os.Remove(filepath.Join(r.stateDir, base+graphEdgesSuffix))
}

// readGraphMetas loads every parseable graph meta file in dir, keyed by
// graph name. Unreadable or torn files are skipped: losing one registry
// entry must not fail the boot.
func readGraphMetas(dir string) map[string]graphMeta {
	out := map[string]graphMeta{}
	des, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, graphMetaSuffix) || strings.Contains(name, ".tmp-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		var m graphMeta
		if err := json.Unmarshal(data, &m); err != nil || m.Version != 1 || m.Name == "" {
			continue
		}
		if graphFileBase(m.Name)+graphMetaSuffix != name {
			continue // file does not belong to the name it claims
		}
		out[m.Name] = m
	}
	return out
}

// restoreDynamicGraph loads a persisted dynamically-added graph (an upload
// or an in-process registration) and verifies its content fingerprint. Any
// failure returns nil: the entry is simply not restored.
//
// The upload node cap applies only to graphs that arrived through the
// upload endpoint: an in-process RegisterGraph accepts graphs of any size,
// so silently dropping one at restore for exceeding a cap it never faced
// would lose state the API promised to keep.
func restoreDynamicGraph(dir string, m graphMeta, maxUploadNodes int) *datasets.Dataset {
	if !m.HasEdgeFile {
		return nil
	}
	f, err := os.Open(filepath.Join(dir, graphFileBase(m.Name)+graphEdgesSuffix))
	if err != nil {
		return nil
	}
	defer f.Close()
	maxNodes := 0
	if m.Source == "uploaded" {
		maxNodes = maxUploadNodes
	}
	g, err := graph.ReadEdgeListLimit(f, maxNodes)
	if err != nil {
		return nil
	}
	if g.N() != m.Nodes || g.M() != m.Edges || graphFingerprint(g) != m.Fingerprint {
		return nil
	}
	// datasets.New recomputes the regime from the GAP, so a meta file
	// predating (or hand-edited around) the regime field restores with the
	// correct classification.
	return datasets.New(m.Name, g, m.GAP.toGAP(), m.Source)
}

// sortedMetaNames returns the meta map's keys ordered by generation (then
// name), so restored registrations replay in their original order.
func sortedMetaNames(metas map[string]graphMeta) []string {
	names := make([]string, 0, len(metas))
	for name := range metas {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := metas[names[i]], metas[names[j]]
		if a.Gen != b.Gen {
			return a.Gen < b.Gen
		}
		return a.Name < b.Name
	})
	return names
}

// stateIndexDir and stateGraphsDir map a configured StateDir to its two
// subdirectories.
func stateIndexDir(stateDir string) string  { return filepath.Join(stateDir, "index") }
func stateGraphsDir(stateDir string) string { return filepath.Join(stateDir, "graphs") }

// errNoStateDir is returned by SaveState on a server with no StateDir.
var errNoStateDir = fmt.Errorf("server: no StateDir configured")
