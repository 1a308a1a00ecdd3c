package fleet

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mpq/internal/faultfs"
)

// TestDirStoreCrashRestartProperty is the crash-safety property test:
// kill the store at *every* mutation cut point of a second-generation
// Put and verify what a fresh post-crash reader observes. The
// contract: Get returns the previous generation intact, the new
// generation intact, or a descriptive error — never torn bytes, and
// never a silent miss of a key whose first Put succeeded without a
// descriptive error explaining why. A subsequent real-filesystem Put
// must always succeed and heal the key.
func TestDirStoreCrashRestartProperty(t *testing.T) {
	const key = "k"
	gen1 := testDoc(2, 1)
	gen2 := testDoc(2, 2)

	// Clean pass: count the mutation cut points of one Put.
	counter := faultfs.NewInjector(nil, faultfs.Config{Seed: 1})
	{
		d, err := NewDirStoreFS(t.TempDir(), counter)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(key, gen1); err != nil {
			t.Fatal(err)
		}
		counter.CrashAfterMutations(0) // reset not needed; just count from here
	}
	before := counter.Mutations()
	{
		d, err := NewDirStoreFS(t.TempDir(), counter)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(key, gen1); err != nil {
			t.Fatal(err)
		}
	}
	cuts := counter.Mutations() - before
	if cuts < 6 {
		t.Fatalf("one Put performed only %d mutations — the atomic-write path shrank?", cuts)
	}
	t.Logf("one Put = %d mutation cut points", cuts)

	for cut := 1; cut <= cuts; cut++ {
		dir := t.TempDir()

		// Generation 1 lands cleanly.
		clean, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := clean.Put(key, gen1); err != nil {
			t.Fatal(err)
		}

		// Generation 2's Put crashes at this cut point.
		inj := faultfs.NewInjector(nil, faultfs.Config{Seed: 1})
		inj.CrashAfterMutations(cut)
		crashy, err := NewDirStoreFS(dir, inj)
		if err != nil {
			t.Fatal(err)
		}
		if err := crashy.Put(key, gen2); err == nil {
			t.Fatalf("cut %d: Put survived its own crash", cut)
		} else if !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("cut %d: Put error = %v, want ErrCrashed", cut, err)
		}

		// A restarted process opens the directory with the real
		// filesystem and must see a consistent world.
		d2, err := NewDirStore(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		doc, ok, gerr := d2.Get(key)
		switch {
		case gerr != nil:
			// Acceptable only when descriptive — the reader must know
			// why, not be handed garbage.
			if !strings.Contains(gerr.Error(), "manifest") && !strings.Contains(gerr.Error(), key) {
				t.Errorf("cut %d: undescriptive post-crash error: %v", cut, gerr)
			}
		case ok:
			if !bytes.Equal(doc, gen1) && !bytes.Equal(doc, gen2) {
				t.Errorf("cut %d: post-crash Get returned torn bytes %q", cut, doc)
			}
		default:
			t.Errorf("cut %d: key silently missing after a successful generation-1 Put", cut)
		}

		// The store self-heals: a real-filesystem Put succeeds and the
		// key serves the new generation.
		if err := d2.Put(key, gen2); err != nil {
			t.Errorf("cut %d: healing Put failed: %v", cut, err)
			continue
		}
		if doc, ok, err := d2.Get(key); err != nil || !ok || !bytes.Equal(doc, gen2) {
			t.Errorf("cut %d: post-heal Get = ok=%v err=%v", cut, ok, err)
		}
	}
}

// TestDirStoreQuarantine is the corrupt-blob regression test: a blob
// whose bytes disagree with the manifest is reported once with a
// descriptive error and moved aside (<blob>.quarantine), so the next
// Get is a plain miss and a re-publish heals the key.
func TestDirStoreQuarantine(t *testing.T) {
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	doc := testDoc(2, 1)
	if err := d.Put("k", doc); err != nil {
		t.Fatal(err)
	}
	// Corrupt the blob in place: same length, different bytes, so only
	// the content-hash check can catch it.
	bad := bytes.Replace(doc, []byte(`"generation":1`), []byte(`"generation":9`), 1)
	if len(bad) != len(doc) {
		t.Fatal("corruption changed the length")
	}
	path := d.blobPath("k", contentHash(doc))
	if err := faultfs.OS.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(faultfs.OS, d.Dir(), path, bad); err != nil {
		t.Fatal(err)
	}

	// First Get: descriptive error, blob quarantined.
	if _, ok, err := d.Get("k"); err == nil || ok {
		t.Fatalf("Get of corrupt blob = ok=%v err=%v", ok, err)
	} else if !strings.Contains(err.Error(), "hash") {
		t.Errorf("corruption error %q does not mention the hash", err)
	}
	if got := d.Quarantined(); got != 1 {
		t.Errorf("Quarantined() = %d, want 1", got)
	}
	if _, err := faultfs.OS.Stat(path + ".quarantine"); err != nil {
		t.Errorf("no quarantine file next to the bad blob: %v", err)
	}

	// Second Get: the blob is gone, so the key degrades to a miss.
	if _, ok, err := d.Get("k"); ok || err != nil {
		t.Fatalf("Get after quarantine = ok=%v err=%v, want a clean miss", ok, err)
	}

	// Re-publishing heals the key.
	if err := d.Put("k", doc); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := d.Get("k"); err != nil || !ok || !bytes.Equal(got, doc) {
		t.Fatalf("healed Get = %q ok=%v err=%v", got, ok, err)
	}
	if got := d.Quarantined(); got != 1 {
		t.Errorf("healing changed the quarantine count to %d", got)
	}
}

// TestDirStoreInjectedReadError checks that a transient injected I/O
// error surfaces as an error (treated as a miss by callers), not as a
// silent miss or wrong data, and that the store keeps working after.
func TestDirStoreInjectedReadError(t *testing.T) {
	inj := faultfs.NewInjector(nil, faultfs.Config{Seed: 3, ErrorRate: 0.3})
	d, err := NewDirStoreFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	doc := testDoc(2, 1)
	// Put may fail under injection; retry until it lands.
	for {
		if err := d.Put("k", doc); err == nil {
			break
		} else if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("Put failed with a non-injected error: %v", err)
		}
	}
	var hits, errs int
	for i := 0; i < 64; i++ {
		got, ok, err := d.Get("k")
		switch {
		case err != nil:
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Get failed with a non-injected error: %v", err)
			}
			errs++
		case ok:
			if !bytes.Equal(got, doc) {
				t.Fatalf("Get returned wrong bytes under injection: %q", got)
			}
			hits++
		default:
			t.Fatal("Get degraded to a miss under a transient error")
		}
	}
	if hits == 0 || errs == 0 {
		t.Errorf("injection schedule produced %d hits, %d errors — wanted both", hits, errs)
	}
	if d.Quarantined() != 0 {
		t.Errorf("transient errors quarantined %d blobs", d.Quarantined())
	}
}
