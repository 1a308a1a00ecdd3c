package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mpq/internal/faultfs"
)

// SharedStore is a shared plan-set document store: a fleet of servers
// publishes prepared plan-set documents under their cache keys (the
// serving layer's SHA-256 template hash) and consults the store before
// optimizing, so each template is computed once per fleet instead of
// once per process. Documents are opaque serialized bytes (the store
// format of mpq/internal/store); implementations must be safe for
// concurrent use from multiple goroutines and — for on-disk stores —
// multiple processes.
type SharedStore interface {
	// Get returns the document published under key; ok is false when
	// the store holds none. A non-nil error means the store holds
	// something for the key but could not serve it intact (integrity
	// failure, I/O error) — callers treat that as a miss and recompute.
	Get(key string) (doc []byte, ok bool, err error)
	// Put publishes a document under key. Concurrent Puts of one key
	// are safe; every Prepare of one key produces identical bytes (the
	// store round-trip is deterministic), so any winner is valid.
	Put(key string, doc []byte) error
	// Flush forces durability of everything published so far (graceful
	// shutdown calls it before exiting).
	Flush() error
}

// manifest is the DirStore's fsync'd index and integrity record: for
// every published key, the document's size, content hash, and
// parameter-space dimension. The manifest is authoritative — a blob
// without a manifest entry is invisible — and lets a reader reject
// corrupt bytes before deserializing a multi-megabyte document.
type manifest struct {
	Version int                      `json:"version"`
	Entries map[string]manifestEntry `json:"entries"`
}

type manifestEntry struct {
	// Bytes and SHA256 describe the exact document content (the hex
	// SHA-256 of the file bytes — the same hash family as the cache
	// key, which hashes the template instead).
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
	// Dim is the document's parameter-space dimension, so a reader can
	// reject a manifest/document mismatch with a descriptive error
	// before pricing points against the wrong space.
	Dim int `json:"dim"`
	// Epsilon is the document's approximation factor (0 for exact plan
	// sets, whose documents omit the stanza). Recording it in the
	// manifest lets Get reject a blob whose precision tier disagrees
	// with what was published — a swapped or tampered file — before a
	// server trusts its plans.
	Epsilon float64 `json:"epsilon,omitempty"`
}

const manifestName = "MANIFEST.json"

// errManifestCorrupt marks a manifest that exists but cannot be
// parsed — distinct from a transient read failure, which must never be
// "repaired" by rewriting the manifest.
var errManifestCorrupt = errors.New("fleet: manifest corrupt")

// DirStore is the concurrency-safe on-disk SharedStore. Documents are
// content-addressed: a document published under cache key k is written
// once, via fsync'd temp-file-plus-rename, to <dir>/<k>.<h>.json where
// h is a prefix of the document's SHA-256 content hash (the same hash
// family as the cache key itself), and never rewritten — every blob on
// disk is immutable. An fsync'd MANIFEST.json maps each key to its
// current blob (size, full content hash, parameter dimension) and is
// replaced atomically.
//
// Consistency story: because blobs are immutable and both renames are
// atomic, a reader that loads the manifest and then the blob it points
// to always sees a complete, self-consistent document of *some*
// generation — a Save racing the Load can never expose torn bytes or a
// mismatched (manifest, document) pair. Puts from one process are
// serialized by an in-process mutex; concurrent writers from different
// processes can lose each other's manifest merge (last rename wins),
// which degrades to a cache miss for the lost key — the next Prepare
// recomputes identical bytes and re-publishes, so the store self-heals
// per key and never serves wrong data.
type DirStore struct {
	dir string
	fs  faultfs.FS

	// mu guards the parsed-manifest cache and serializes Put's
	// read-modify-write. The cache is invalidated by stat (size +
	// mtime): the manifest file is only ever atomically replaced, so a
	// changed stat is exactly a changed manifest — Gets on the serving
	// hot path (pick-time reloads) re-parse only after an actual Put.
	// The cached manifest is shared with readers; its Entries map is
	// never mutated in place (Put clones).
	mu      sync.Mutex
	man     *manifest
	manSize int64
	manMod  time.Time

	statsMu                         sync.Mutex
	hits, misses, puts, quarantined int64
}

// NewDirStore opens (creating if needed) an on-disk shared store rooted
// at dir.
func NewDirStore(dir string) (*DirStore, error) {
	return NewDirStoreFS(dir, nil)
}

// NewDirStoreFS is NewDirStore with an explicit filesystem (nil selects
// the real one) — the fault-injection seam for crash and I/O-error
// tests.
func NewDirStoreFS(dir string, fsys faultfs.FS) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("fleet: shared dir must not be empty")
	}
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("fleet: shared dir: %w", err)
	}
	return &DirStore{dir: dir, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (d *DirStore) Dir() string { return d.dir }

// blobHashLen is the content-hash prefix length in a blob filename —
// long enough that distinct generations of one key cannot collide in
// practice, short enough for readable directory listings.
const blobHashLen = 16

// blobPath is the immutable content-addressed file of one document
// generation.
func (d *DirStore) blobPath(key, sha string) string {
	return filepath.Join(d.dir, key+"."+sha[:blobHashLen]+".json")
}

// Get implements SharedStore: resolve the key through the manifest,
// read the immutable blob it points to, verify size, content hash and
// dimension. A blob that disagrees with its manifest entry is reported
// as an error, not silently served — and quarantined (renamed to
// <blob>.quarantine), so the very next Get degrades to a plain miss
// and the key heals through recompute-and-republish instead of staying
// permanently wedged on one corrupt file.
func (d *DirStore) Get(key string) ([]byte, bool, error) {
	m, err := d.readManifest()
	if err != nil {
		return nil, false, err
	}
	ent, ok := m.Entries[key]
	if !ok || len(ent.SHA256) < blobHashLen {
		d.count(&d.misses)
		return nil, false, nil
	}
	path := d.blobPath(key, ent.SHA256)
	doc, err := d.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			d.count(&d.misses)
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("fleet: reading shared document %s: %w", key, err)
	}
	if err := validateEntry(key, ent, doc); err != nil {
		d.quarantine(path)
		return nil, false, err
	}
	d.count(&d.hits)
	return doc, true, nil
}

// quarantine moves a blob that failed integrity validation out of the
// way (best-effort — on failure the next Get re-detects the mismatch)
// and counts it. The manifest entry is left in place: with the blob
// gone, it degrades to a miss, and the key's next Put re-points it.
func (d *DirStore) quarantine(path string) {
	if err := d.fs.Rename(path, path+".quarantine"); err != nil {
		return
	}
	d.count(&d.quarantined)
}

func (d *DirStore) count(c *int64) {
	d.statsMu.Lock()
	*c++
	d.statsMu.Unlock()
}

// validateEntry checks a document against its manifest record.
func validateEntry(key string, ent manifestEntry, doc []byte) error {
	if ent.Bytes != int64(len(doc)) {
		return fmt.Errorf("fleet: shared document %s is %d bytes, manifest records %d", key, len(doc), ent.Bytes)
	}
	if sum := contentHash(doc); sum != ent.SHA256 {
		return fmt.Errorf("fleet: shared document %s content hash %s, manifest records %s", key, sum, ent.SHA256)
	}
	if dim, err := docDim(doc); err != nil {
		return fmt.Errorf("fleet: shared document %s: %w", key, err)
	} else if ent.Dim != dim {
		return fmt.Errorf("fleet: shared document %s has parameter dimension %d, manifest records %d", key, dim, ent.Dim)
	}
	if eps, err := docEpsilon(doc); err != nil {
		return fmt.Errorf("fleet: shared document %s: %w", key, err)
	} else if ent.Epsilon != eps {
		return fmt.Errorf("fleet: shared document %s has epsilon %v, manifest records %v", key, eps, ent.Epsilon)
	}
	return nil
}

// Put implements SharedStore: fsync'd atomic write of the immutable
// content-addressed blob, then a merged, fsync'd manifest update that
// points the key at it. Superseded blob generations are left in place
// so a reader holding an older manifest never loses its blob; in
// practice every Prepare of one key produces identical bytes, so a key
// has one generation.
func (d *DirStore) Put(key string, doc []byte) error {
	dim, err := docDim(doc)
	if err != nil {
		return fmt.Errorf("fleet: refusing to publish %s: %w", key, err)
	}
	eps, err := docEpsilon(doc)
	if err != nil {
		return fmt.Errorf("fleet: refusing to publish %s: %w", key, err)
	}
	sha := contentHash(doc)
	if err := WriteFileAtomic(d.fs, d.dir, d.blobPath(key, sha), doc); err != nil {
		return fmt.Errorf("fleet: publishing %s: %w", key, err)
	}
	d.count(&d.puts)
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, err := d.cachedManifestLocked()
	if err != nil {
		if !errors.Is(err, errManifestCorrupt) {
			// A *transient* read failure must fail the Put rather than
			// rebuild: rewriting the manifest from one entry would
			// orphan every other key's blob over a passing I/O error.
			return fmt.Errorf("fleet: publishing %s: %w", key, err)
		}
		// A genuinely corrupt manifest must not block publication:
		// rebuild from this entry on. Keys indexed only by the lost
		// manifest degrade to misses and self-heal on their next
		// Prepare's re-publish.
		cur = &manifest{Version: 1, Entries: map[string]manifestEntry{}}
	}
	// Clone before mutating: the cached manifest is shared with
	// concurrent readers.
	m := &manifest{Version: 1, Entries: make(map[string]manifestEntry, len(cur.Entries)+1)}
	for k, v := range cur.Entries {
		m.Entries[k] = v
	}
	m.Entries[key] = manifestEntry{
		Bytes:   int64(len(doc)),
		SHA256:  sha,
		Dim:     dim,
		Epsilon: eps,
	}
	if err := d.writeManifestLocked(m); err != nil {
		return err
	}
	// Cache what was just written so the next Get skips the re-parse.
	if fi, err := d.fs.Stat(filepath.Join(d.dir, manifestName)); err == nil {
		d.man, d.manSize, d.manMod = m, fi.Size(), fi.ModTime()
	}
	return nil
}

// Flush implements SharedStore: every Put is already fsync'd (document
// and manifest), so Flush only re-syncs the directory entry.
func (d *DirStore) Flush() error {
	return d.fs.SyncDir(d.dir)
}

// Stats returns the store's hit/miss/put counters.
func (d *DirStore) Stats() (hits, misses, puts int64) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.hits, d.misses, d.puts
}

// Quarantined returns how many corrupt blobs Get has moved aside.
func (d *DirStore) Quarantined() int64 {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.quarantined
}

// readManifest returns the parsed manifest (an absent manifest is an
// empty one), served from the stat-validated cache.
func (d *DirStore) readManifest() (*manifest, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cachedManifestLocked()
}

// cachedManifestLocked returns the parsed manifest, re-reading the
// file only when its stat (size, mtime) changed since the last parse —
// the manifest is only ever atomically replaced, so an unchanged stat
// means unchanged content. Callers hold d.mu and must not mutate the
// returned manifest's Entries. Parse errors are never cached.
func (d *DirStore) cachedManifestLocked() (*manifest, error) {
	path := filepath.Join(d.dir, manifestName)
	fi, err := d.fs.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &manifest{Version: 1, Entries: map[string]manifestEntry{}}, nil
		}
		return nil, fmt.Errorf("fleet: reading manifest: %w", err)
	}
	if d.man != nil && fi.Size() == d.manSize && fi.ModTime().Equal(d.manMod) {
		return d.man, nil
	}
	m, err := readManifestFile(d.fs, path)
	if err != nil {
		return nil, err
	}
	d.man, d.manSize, d.manMod = m, fi.Size(), fi.ModTime()
	return m, nil
}

func readManifestFile(fsys faultfs.FS, path string) (*manifest, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &manifest{Version: 1, Entries: map[string]manifestEntry{}}, nil
		}
		return nil, fmt.Errorf("fleet: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", errManifestCorrupt, err)
	}
	if m.Entries == nil {
		m.Entries = map[string]manifestEntry{}
	}
	return &m, nil
}

func (d *DirStore) writeManifestLocked(m *manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: encoding manifest: %w", err)
	}
	if err := WriteFileAtomic(d.fs, d.dir, filepath.Join(d.dir, manifestName), raw); err != nil {
		return fmt.Errorf("fleet: writing manifest: %w", err)
	}
	return nil
}

// WriteFileAtomic writes data to path through fsys via an fsync'd temp
// file in dir and an atomic rename, then syncs the directory so the
// rename itself is durable. DirStore writes its blobs and manifest with
// it and the serving layer's Options.Dir persistence writes plan-set
// documents with it, so the same bytes get the same durability wherever
// they land.
func WriteFileAtomic(fsys faultfs.FS, dir, path string, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		fsys.Remove(tmp.Name())
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(dir)
}

// contentHash is the hex SHA-256 of a document's bytes.
func contentHash(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// ContentHash is the hex SHA-256 of a document's bytes — the value the
// /planset endpoint carries in DocHashHeader and PeerClient validates.
func ContentHash(doc []byte) string { return contentHash(doc) }

// docDim extracts the parameter-space dimension from a serialized
// plan-set document without deserializing the plans.
func docDim(doc []byte) (int, error) {
	var probe struct {
		Space struct {
			Dim int `json:"dim"`
		} `json:"space"`
	}
	if err := json.Unmarshal(doc, &probe); err != nil {
		return 0, fmt.Errorf("not a plan-set document: %w", err)
	}
	if probe.Space.Dim <= 0 {
		return 0, fmt.Errorf("document has no parameter-space dimension")
	}
	return probe.Space.Dim, nil
}

// docEpsilon probes a serialized plan-set document for its
// approximation factor without a full deserialization (the store
// package owns the format; this mirrors docDim). Exact documents omit
// the stanza and probe as 0.
func docEpsilon(doc []byte) (float64, error) {
	var probe struct {
		Epsilon float64 `json:"epsilon"`
	}
	if err := json.Unmarshal(doc, &probe); err != nil {
		return 0, fmt.Errorf("not a plan-set document: %w", err)
	}
	if probe.Epsilon < 0 {
		return 0, fmt.Errorf("document has negative epsilon %v", probe.Epsilon)
	}
	return probe.Epsilon, nil
}
