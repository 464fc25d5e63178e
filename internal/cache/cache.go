// Package cache is the content-addressed result store shared by the
// simulation server and the sweep dispatcher: rendered report bytes
// keyed by the scenario's canonical hash (see config.CacheKey). The
// memory tier is a size-bounded LRU; the optional disk tier persists
// every stored report through vfs's temp-file, fsync and rename
// publication, so a cached report survives a crash at any instant and
// a restarted process keeps its hits.
//
// The disk tier is also self-healing: a truncated or otherwise corrupt
// blob — a torn write from a crash that beat the rename, or operator
// damage — is treated as a counted miss, evicted, and re-simulated on
// the normal miss path rather than surfacing an error to the caller.
//
// Counters live in the obs registry handed to New, so /metrics,
// /v1/stats, and the cache itself all read one set of numbers.
package cache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"

	"fcdpm/internal/obs"
	"fcdpm/internal/vfs"
)

// Store is the two-tier content-addressed result store.
type Store struct {
	mu    sync.Mutex
	max   int64 // memory-tier byte bound; <= 0 disables the memory tier
	size  int64
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	dir   string // disk tier root; empty disables it
	fs    vfs.FS

	// diskDown marks the disk tier write-disabled after a disk-full
	// write failure: the store degrades to memory-only (reads of blobs
	// already on disk keep working) instead of hammering a full volume
	// on every put. Counted once in fallbacks.
	diskDown atomic.Bool

	hits   *obs.Counter
	misses *obs.Counter
	// diskHits counts hits served by the disk tier (included in hits);
	// diskErrs counts disk writes/reads that failed (the memory tier and
	// the response are unaffected).
	diskHits *obs.Counter
	diskErrs *obs.Counter
	// corrupt counts disk blobs that failed validation on read; each is
	// deleted and reported as a miss, so the caller re-simulates and the
	// next put overwrites the damage.
	corrupt *obs.Counter
	// oversize counts puts whose blob exceeded the memory-tier bound and
	// was therefore never admitted to memory (the disk tier still takes
	// it). Before this counter existed such a blob was admitted and then
	// pinned forever: the eviction loop refused to drop the last entry,
	// so one oversized report could hold Bytes above MaxBytes for the
	// life of the process.
	oversize *obs.Counter
	// fallbacks counts disk-full degradations: the moment the disk tier
	// was write-disabled and the store fell back to memory-only.
	fallbacks *obs.Counter
}

// entry is one memory-tier resident.
type entry struct {
	key   string
	bytes []byte
}

// keyPattern is the only shape a content address can take; it doubles as
// the path-traversal guard for the disk tier.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// New builds the store and registers its series on reg (a nil registry
// gets a private one, for callers that don't export). It runs on the
// real filesystem; NewFS substitutes another (the chaos harness).
func New(maxBytes int64, dir string, reg *obs.Registry) (*Store, error) {
	return NewFS(maxBytes, dir, reg, nil)
}

// NewFS is New with an explicit filesystem; nil means the real one.
func NewFS(maxBytes int64, dir string, reg *obs.Registry, fs vfs.FS) (*Store, error) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if fs == nil {
		fs = vfs.Default
	}
	c := &Store{
		max: maxBytes, ll: list.New(), byKey: make(map[string]*list.Element), dir: dir, fs: fs,
		hits:      reg.Counter("fcdpm_cache_hits_total", "Result-cache hits (memory or disk tier)."),
		misses:    reg.Counter("fcdpm_cache_misses_total", "Result-cache misses."),
		diskHits:  reg.Counter("fcdpm_cache_disk_hits_total", "Result-cache hits served by the disk tier."),
		diskErrs:  reg.Counter("fcdpm_cache_disk_errors_total", "Result-cache disk reads/writes that failed."),
		corrupt:   reg.Counter("fcdpm_cache_corrupt_total", "Disk-tier blobs that failed validation and were evicted (counted as misses)."),
		oversize:  reg.Counter("fcdpm_cache_oversize_rejects_total", "Puts rejected from the memory tier for exceeding its byte bound."),
		fallbacks: reg.Counter("fcdpm_cache_disk_fallbacks_total", "Disk-full degradations: the disk tier was write-disabled and the store fell back to memory-only."),
	}
	obs.RegisterIOWriteFailures(reg)
	reg.GaugeFunc("fcdpm_cache_disk_write_disabled", "1 while the disk tier is write-disabled after a disk-full failure.", func() float64 {
		if c.diskDown.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("fcdpm_cache_entries", "Memory-tier resident entries.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.ll.Len())
	})
	reg.GaugeFunc("fcdpm_cache_bytes", "Memory-tier resident bytes.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.size)
	})
	reg.GaugeFunc("fcdpm_cache_max_bytes", "Memory-tier byte bound.", func() float64 {
		return float64(maxBytes)
	})
	if dir != "" {
		if err := fs.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("cache: dir: %w", err)
		}
	}
	return c, nil
}

// Get returns the report stored under key. A memory miss falls through
// to the disk tier and, on a hit there, repopulates memory. A disk blob
// that fails validation (truncated or corrupt JSON) is deleted and
// reported as a miss — the caller re-simulates and overwrites it.
func (c *Store) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		b := el.Value.(*entry).bytes
		c.mu.Unlock()
		c.hits.Inc()
		return b, true
	}
	c.mu.Unlock()
	if c.dir != "" && keyPattern.MatchString(key) {
		b, err := c.fs.ReadFile(c.diskPath(key))
		switch {
		case err == nil && json.Valid(b):
			c.insert(key, b)
			c.hits.Inc()
			c.diskHits.Inc()
			return b, true
		case err == nil:
			// Torn or damaged blob: evict it so the re-simulated result
			// can land cleanly, and count the event.
			c.corrupt.Inc()
			if rmErr := c.fs.Remove(c.diskPath(key)); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
				c.diskErrs.Inc()
			}
		case !errors.Is(err, os.ErrNotExist):
			c.diskErrs.Inc()
		}
	}
	c.misses.Inc()
	return nil, false
}

// Put stores the report under key in both tiers. A blob larger than the
// memory bound skips the memory tier (counted in the stats) but still
// reaches the disk tier, so it is served from disk rather than pinning
// the LRU above its bound. The disk write is atomic (temp + fsync +
// rename) and its failure only surfaces in the stats — the memory tier
// and the caller's bytes are already good. A disk-full failure
// write-disables the disk tier for the rest of the process (counted in
// fallbacks): the store degrades to memory-only rather than paying a
// doomed fsync on every subsequent put.
func (c *Store) Put(key string, b []byte) {
	if c.max > 0 && int64(len(b)) > c.max {
		c.oversize.Inc()
	}
	c.insert(key, b)
	if c.dir == "" || c.diskDown.Load() || !keyPattern.MatchString(key) {
		return
	}
	if err := c.fs.WriteFileAtomic(c.diskPath(key), b); err != nil {
		c.diskErrs.Inc()
		if vfs.IsDiskFull(err) && !c.diskDown.Swap(true) {
			c.fallbacks.Inc()
		}
	}
}

// insert adds (or refreshes) a memory-tier entry and evicts from the LRU
// tail until the byte bound holds again. Blobs that cannot fit even in
// an empty cache are rejected outright — admitting one used to leave it
// pinned, because eviction never drops the final entry.
func (c *Store) insert(key string, b []byte) {
	if c.max <= 0 || int64(len(b)) > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry)
		c.size += int64(len(b)) - int64(len(e.bytes))
		e.bytes = b
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&entry{key: key, bytes: b})
		c.size += int64(len(b))
	}
	for c.size > c.max && c.ll.Len() > 0 {
		el := c.ll.Back()
		e := el.Value.(*entry)
		c.ll.Remove(el)
		delete(c.byKey, e.key)
		c.size -= int64(len(e.bytes))
	}
}

func (c *Store) diskPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Stats is the operational snapshot (the /v1/stats cache section), read
// from the same obs counters /metrics renders.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	DiskHits  int64 `json:"diskHits"`
	DiskErrs  int64 `json:"diskErrs"`
	Corrupt   int64 `json:"corrupt"`
	Oversize  int64 `json:"oversize"`
	Fallbacks int64 `json:"diskFallbacks,omitempty"`
	DiskDown  bool  `json:"diskWriteDisabled,omitempty"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"maxBytes"`
}

// Stats snapshots the store.
func (c *Store) Stats() Stats {
	c.mu.Lock()
	entries, size := c.ll.Len(), c.size
	c.mu.Unlock()
	return Stats{
		Hits: int64(c.hits.Value()), Misses: int64(c.misses.Value()),
		DiskHits: int64(c.diskHits.Value()), DiskErrs: int64(c.diskErrs.Value()),
		Corrupt:   int64(c.corrupt.Value()),
		Oversize:  int64(c.oversize.Value()),
		Fallbacks: int64(c.fallbacks.Value()),
		DiskDown:  c.diskDown.Load(),
		Entries:   entries, Bytes: size, MaxBytes: c.max,
	}
}
