package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mpq/internal/faultfs"
)

// testDocEps builds a minimal well-formed ε-tier document payload.
func testDocEps(dim int, eps float64) []byte {
	return []byte(fmt.Sprintf(`{"version":4,"epsilon":%g,"space":{"dim":%d}}`, eps, dim))
}

// TestDirStoreEpsilonRoundTrip: documents of both precision tiers
// publish and serve under their own keys, and the manifest records
// each document's approximation factor.
func TestDirStoreEpsilonRoundTrip(t *testing.T) {
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exact := testDoc(2, 1)
	approx := testDocEps(2, 0.05)
	if err := d.Put("kexact", exact); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("kapprox", approx); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string][]byte{"kexact": exact, "kapprox": approx} {
		got, ok, err := d.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q ok=%v err=%v", key, got, ok, err)
		}
	}
	m, err := d.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Entries["kexact"].Epsilon; got != 0 {
		t.Errorf("exact manifest epsilon = %v, want 0", got)
	}
	if got := m.Entries["kapprox"].Epsilon; got != 0.05 {
		t.Errorf("approx manifest epsilon = %v, want 0.05", got)
	}
}

// TestDirStoreEpsilonMismatchQuarantine: a blob whose approximation
// factor disagrees with its manifest record must be reported with a
// descriptive error and quarantined — the size and content-hash checks
// cannot catch a manifest edited to relabel a tier, the epsilon check
// must.
func TestDirStoreEpsilonMismatchQuarantine(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc := testDocEps(2, 0.05)
	if err := d.Put("k", doc); err != nil {
		t.Fatal(err)
	}

	// Relabel the tier in the manifest only: bytes, hash, and dim still
	// match the blob.
	m, err := d.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	ent := m.Entries["k"]
	ent.Epsilon = 0.5
	m.Entries["k"] = ent
	d.mu.Lock()
	err = d.writeManifestLocked(m)
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh store (no cached manifest) must reject and quarantine.
	d2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d2.Get("k"); err == nil || ok {
		t.Fatalf("Get with relabeled tier = ok=%v err=%v, want error", ok, err)
	} else if !strings.Contains(err.Error(), "epsilon") {
		t.Errorf("mismatch error %q does not mention epsilon", err)
	}
	if got := d2.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d, want 1", got)
	}
	path := d2.blobPath("k", contentHash(doc))
	if _, err := faultfs.OS.Stat(path + ".quarantine"); err != nil {
		t.Errorf("no quarantine file next to the relabeled blob: %v", err)
	}

	// Degrades to a miss, then a re-publish heals the key and re-points
	// the manifest at the true tier.
	if _, ok, err := d2.Get("k"); ok || err != nil {
		t.Fatalf("Get after quarantine = ok=%v err=%v, want a clean miss", ok, err)
	}
	if err := d2.Put("k", doc); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := d2.Get("k"); err != nil || !ok || !bytes.Equal(got, doc) {
		t.Fatalf("healed Get = %q ok=%v err=%v", got, ok, err)
	}
}

// TestDirStorePutLastWriteWins: the manifest points a key at its last
// Put, whatever that document's ε — a coarser document replaces a finer
// one. The read side still guards the tier: the manifest records the
// winner's ε, and a fresh store over the same dir validates and serves
// that document (the superseded blobs still on disk are unreferenced).
func TestDirStorePutLastWriteWins(t *testing.T) {
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fine := testDocEps(2, 0)
	coarse := testDocEps(2, 0.5)
	mid := testDocEps(2, 0.1)
	for _, doc := range [][]byte{fine, coarse} {
		if err := d.Put("k", doc); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := d.Get("k"); err != nil || !ok || !bytes.Equal(got, doc) {
			t.Fatalf("Get after Put = %q ok=%v err=%v, want %q", got, ok, err, doc)
		}
	}
	if err := d.Put("k", mid); err != nil {
		t.Fatal(err)
	}
	m, err := d.readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Entries["k"].Epsilon; got != 0.1 {
		t.Errorf("manifest epsilon = %v, want 0.1 from the last Put", got)
	}
	d2, err := NewDirStore(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := d2.Get("k"); err != nil || !ok || !bytes.Equal(got, mid) {
		t.Fatalf("reopened Get = %q ok=%v err=%v, want the ε=0.1 doc", got, ok, err)
	}
}

// TestDirStorePutRejectsNegativeEpsilon: a document carrying a
// negative factor is refused at publication.
func TestDirStorePutRejectsNegativeEpsilon(t *testing.T) {
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k", []byte(`{"version":4,"epsilon":-0.1,"space":{"dim":2}}`)); err == nil {
		t.Error("negative-epsilon document published")
	}
}
