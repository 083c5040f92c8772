package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"comic/internal/graph"
)

// Shared snapshot tier. The snapshot codec made RR-set collections a
// restart format: one process writes per-entry objects, the same process
// reads them back. Cluster mode promotes it to a storage format shared
// *across* processes: any node can publish the collections it built for a
// graph, and any node that inherits that graph on a membership change can
// adopt them — moving warm cache state through the store instead of
// rebuilding it.
//
// SnapshotStore is deliberately object-store-shaped (flat names, whole-
// object writes, list-by-prefix) so the filesystem implementation below
// can later be swapped for S3/GCS without touching the index logic. The
// local state-directory snapshot runs through it too, as a DirStore.
//
// The store holds the published scope of the snapshot layout (snapshot.go):
// one prefix per graph *version*, graphs/<digest(graphID)>. Prefixing by
// versioned GraphID ("<name>#<reg-gen>@<edit-gen>") is the generation
// fence: a publisher writes only under the exact version it holds, an
// adopter reads only the prefix of the version it currently serves, and
// the manifest's recorded GraphID is verified on top. A snapshot of a
// stale generation lives under a different prefix and can never be
// adopted, let alone served. It also keeps concurrent writers apart: two
// nodes only ever race on a prefix when both own the same version, in
// which case they write identical bytes (collections are deterministic per
// key).

// SnapshotStore is a pluggable blob backend for RR-index snapshots.
// Object names are forward-slash-separated paths of [a-zA-Z0-9._-]
// segments. Implementations must make Put atomic (readers see the old
// object or the whole new one, never a torn write) and must return an
// error wrapping fs.ErrNotExist from Get when the object is absent.
type SnapshotStore interface {
	// Put creates or replaces the named object with fill's output.
	Put(name string, fill func(io.Writer) error) error
	// Get opens the named object for reading.
	Get(name string) (io.ReadCloser, error)
	// List returns the names of all objects under prefix, sorted; prefix ""
	// lists the objects at the store's root.
	List(prefix string) ([]string, error)
	// Delete removes the named object; deleting an absent object is not an
	// error.
	Delete(name string) error
	// Ping reports whether the store is reachable, for readiness probes.
	Ping() error
}

// storeGraphPrefix is the object prefix of one graph version's published
// entries. The digest keeps client-chosen graph names (and '@'/'#' from
// the versioned ID) out of object names.
func storeGraphPrefix(graphID string) string {
	sum := sha256.Sum256([]byte(graphID))
	return "graphs/" + hex.EncodeToString(sum[:16])
}

// --- filesystem implementation ---

// DirStore implements SnapshotStore on a filesystem directory — typically
// a shared mount (NFS, EBS multi-attach) in a real deployment, a plain
// local directory in tests and single-host clusters, and the state
// directory's index/ for the local snapshot. All writes are atomic
// temp-file+rename.
type DirStore struct {
	root string
}

// NewDirStore opens (creating if needed) a directory-backed snapshot
// store rooted at root.
func NewDirStore(root string) (*DirStore, error) {
	if root == "" {
		return nil, errors.New("server: DirStore root must be non-empty")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating snapshot store root: %v", err)
	}
	return &DirStore{root: root}, nil
}

// Root returns the store's root directory.
func (ds *DirStore) Root() string { return ds.root }

// storePath maps an object name onto the root, refusing names that could
// escape it. Internally generated names are hex digests and fixed
// basenames, but manifests are read back from disk and the store is an
// exported API surface: neither may be trusted with path traversal.
func (ds *DirStore) storePath(name string) (string, error) {
	if name == "" || strings.HasPrefix(name, "/") || strings.HasSuffix(name, "/") {
		return "", fmt.Errorf("server: bad store object name %q", name)
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return "", fmt.Errorf("server: bad store object name %q", name)
		}
	}
	return filepath.Join(ds.root, filepath.FromSlash(name)), nil
}

func (ds *DirStore) Put(name string, fill func(io.Writer) error) error {
	path, err := ds.storePath(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeFileAtomic(path, fill)
}

func (ds *DirStore) Get(name string) (io.ReadCloser, error) {
	path, err := ds.storePath(name)
	if err != nil {
		return nil, err
	}
	return os.Open(path) // wraps fs.ErrNotExist when absent
}

func (ds *DirStore) List(prefix string) ([]string, error) {
	dir := ds.root
	if prefix != "" {
		var err error
		if dir, err = ds.storePath(prefix); err != nil {
			return nil, err
		}
	}
	des, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if de.IsDir() || strings.Contains(de.Name(), ".tmp-") {
			continue // a crashed writer's temp file is not an object
		}
		names = append(names, objectName(prefix, de.Name()))
	}
	sort.Strings(names)
	return names, nil
}

func (ds *DirStore) Delete(name string) error {
	path, err := ds.storePath(name)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Ping verifies the root directory exists and is a directory. That is the
// failure mode a shared mount actually has (unmounted path), and it is
// cheap enough for every /healthz probe.
func (ds *DirStore) Ping() error {
	fi, err := os.Stat(ds.root)
	if err != nil {
		return err
	}
	if !fi.IsDir() {
		return fmt.Errorf("server: snapshot store root %q is not a directory", ds.root)
	}
	return nil
}

// --- index ⇄ store bridge ---

// PublishGraph writes every resident collection keyed to graphID (the
// versioned RR-index GraphID) to the store under the version's prefix,
// plus a manifest recording the LRU order, and returns how many entries
// the manifest now lists (saveEntries' rules: unchanged objects are
// reused, evicted entries' objects pruned, and a version with nothing
// resident publishes an empty manifest).
//
// Serialized with the local snapshot operations on snapMu; safe to call
// concurrently with queries.
func (x *Index) PublishGraph(store SnapshotStore, graphID string) (int, error) {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	return x.saveEntries(store, storeGraphPrefix(graphID), graphID)
}

// AdoptGraph loads the store's published entries for graphID — the
// versioned GraphID of the graph version this index currently serves, on
// graph g — and returns how many collections it adopted. It applies
// exactly the validation of a local snapshot restore (loadEntries): the
// manifest and every entry object must record exactly graphID, an entry's
// key must hash to its object name, the codec's checksums must verify, and
// the node/edge counts must match g. Anything else, and every entry from
// the first one beyond the byte budget on, is skipped and counted in
// IndexStats.RestoreRejects — a stale or foreign snapshot is never served.
// Entries already resident are skipped uncounted.
//
// An absent manifest is not an error: the graph simply was not published
// and the adopter stays cold.
func (x *Index) AdoptGraph(store SnapshotStore, graphID string, g *graph.Graph) (int, error) {
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	return x.loadEntries(store, storeGraphPrefix(graphID), graphID, map[string]*graph.Graph{graphID: g})
}
