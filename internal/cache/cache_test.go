package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c, err := New(100, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("%064d", i) }
	blob := bytes.Repeat([]byte("x"), 40)
	c.Put(key(1), blob)
	c.Put(key(2), blob)
	// Touch 1 so 2 is the eviction victim.
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	c.Put(key(3), blob) // 120 bytes > 100: evict LRU (key 2)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("fresh entry evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestCacheRejectsOversizeBlob(t *testing.T) {
	// Regression: the eviction loop used to refuse to drop the last
	// resident, so a single blob larger than the bound stayed pinned
	// forever with Bytes > MaxBytes. Oversize blobs must now never enter
	// the memory tier — and must be counted.
	c, _ := New(10, "", nil)
	k := fmt.Sprintf("%064d", 1)
	big := bytes.Repeat([]byte("y"), 50)
	c.Put(k, big)
	if _, ok := c.Get(k); ok {
		t.Fatal("oversize blob admitted to the memory tier")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize blob left residue: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("Bytes %d above MaxBytes %d", st.Bytes, st.MaxBytes)
	}
	if st.Oversize != 1 {
		t.Fatalf("oversize reject not counted: %+v", st)
	}
	// The tier still works for blobs that fit.
	small := []byte("12345")
	c.Put(k, small)
	if b, ok := c.Get(k); !ok || !bytes.Equal(b, small) {
		t.Fatal("fitting blob not admitted after oversize reject")
	}
}

func TestCacheOversizeBlobServedFromDisk(t *testing.T) {
	// An oversize blob skips memory but still persists to (and serves
	// from) the disk tier.
	c, _ := New(10, t.TempDir(), nil)
	k := fmt.Sprintf("%064d", 2)
	// A valid-JSON blob (the disk tier validates on read) that exceeds
	// the 10-byte memory bound.
	big := append(append([]byte{'"'}, bytes.Repeat([]byte("z"), 50)...), '"')
	c.Put(k, big)
	if b, ok := c.Get(k); !ok || !bytes.Equal(b, big) {
		t.Fatal("oversize blob not served by the disk tier")
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Entries != 0 {
		t.Fatalf("disk-tier oversize serve miscounted: %+v", st)
	}
}

func TestCachePutMemoryTierDisabled(t *testing.T) {
	// With the memory tier off (zero or negative bound) and no disk
	// tier, puts are silent no-ops: no residue, no panic, stable stats.
	for _, max := range []int64{0, -1} {
		c, err := New(max, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		k := fmt.Sprintf("%064d", 3)
		c.Put(k, []byte("data"))
		if _, ok := c.Get(k); ok {
			t.Fatalf("max=%d: entry admitted with memory tier disabled", max)
		}
		st := c.Stats()
		if st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("max=%d: residue in disabled tier: %+v", max, st)
		}
		// Not an oversize reject — the tier is off, not too small.
		if st.Oversize != 0 {
			t.Fatalf("max=%d: disabled tier counted oversize: %+v", max, st)
		}
		if st.Misses != 1 {
			t.Fatalf("max=%d: get not counted as miss: %+v", max, st)
		}
	}
}

func TestCacheDiskTierGuardsKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := New(0, dir, nil) // memory tier disabled
	if err != nil {
		t.Fatal(err)
	}
	// A traversal-shaped key must never touch the filesystem.
	c.Put("../escape", []byte("nope"))
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("path traversal escaped the cache dir")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("unexpected files for invalid key: %v", entries)
	}

	valid := fmt.Sprintf("%064x", 0xabc)
	c.Put(valid, []byte(`{"ok":true}`))
	if b, ok := c.Get(valid); !ok || !bytes.Equal(b, []byte(`{"ok":true}`)) {
		t.Fatal("disk round-trip failed with memory tier disabled")
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
}

func TestCacheCorruptDiskBlobIsCountedMiss(t *testing.T) {
	// Regression (robustness): a truncated or otherwise corrupt disk
	// blob — a torn write from a crash that beat the rename — must read
	// as a counted miss, not an error or garbage served to the client.
	// The damaged file is evicted so a re-simulated Put lands cleanly.
	dir := t.TempDir()
	c, err := New(0, dir, nil) // memory tier off: force the disk path
	if err != nil {
		t.Fatal(err)
	}
	k := fmt.Sprintf("%064x", 0xdead)
	full := []byte(`{"name":"run","fuelAs":12.5}`)
	c.Put(k, full)

	// Deliberately truncate the blob mid-token.
	path := filepath.Join(dir, k+".json")
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	if b, ok := c.Get(k); ok {
		t.Fatalf("corrupt blob served: %q", b)
	}
	st := c.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("corrupt blob not counted: %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("corrupt blob not a miss: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not evicted: %v", err)
	}

	// Re-simulate and overwrite: the store heals.
	c.Put(k, full)
	if b, ok := c.Get(k); !ok || !bytes.Equal(b, full) {
		t.Fatal("overwrite after corruption did not heal the entry")
	}
	if st := c.Stats(); st.Corrupt != 1 || st.DiskHits != 1 {
		t.Fatalf("stats after heal: %+v", st)
	}
}
