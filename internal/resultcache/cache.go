package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"ccsvm/internal/sim"
	"ccsvm/internal/workloads"
)

// FormatVersion is the version of the on-disk/in-memory record encoding.
// Records carrying any other version are treated as misses, so bumping it
// invalidates every persisted entry without touching the files.
const FormatVersion = 1

// Key is a content address: the SHA-256 of a RunSpec's canonical encoding.
type Key [sha256.Size]byte

// Hex returns the key as lowercase hex, the form used in filenames, HTTP
// responses, and logs.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// String implements fmt.Stringer as a short prefix of the hex form.
func (k Key) String() string { return k.Hex()[:12] }

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the in-memory LRU tier. Zero means DefaultMaxEntries;
	// negative disables the memory tier entirely (disk-only).
	MaxEntries int
	// Dir is the root of the persistent tier. Empty means memory-only.
	Dir string
}

// DefaultMaxEntries is the in-memory LRU capacity when Options.MaxEntries is
// zero.
const DefaultMaxEntries = 4096

// record is the stored form of one Result, versioned so schema evolution
// invalidates instead of corrupting. Spec is the human-readable RunSpec
// string, carried for debugging only — the key is the identity.
type record struct {
	Format int       `json:"format"`
	Spec   string    `json:"spec,omitempty"`
	Result recResult `json:"result"`
}

// recResult mirrors workloads.Result field-for-field with explicit JSON
// names. Metrics has no omitempty: an empty-but-present map must round-trip
// as-is so decoded Results stay bit-identical to fresh ones.
type recResult struct {
	Label        string             `json:"label"`
	SimTimePs    int64              `json:"sim_time_ps"`
	DRAMAccesses uint64             `json:"dram_accesses"`
	Checked      bool               `json:"checked"`
	Metrics      map[string]float64 `json:"metrics"`
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// MemHits and DiskHits count Gets served by each tier.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	// Misses counts Gets served by neither tier.
	Misses uint64 `json:"misses"`
	// Stores counts successful Puts.
	Stores uint64 `json:"stores"`
	// Corrupt counts disk records rejected as unreadable (truncated,
	// garbled, or wrong format version); each was reported as a miss.
	Corrupt uint64 `json:"corrupt"`
	// Evictions counts LRU evictions from the memory tier.
	Evictions uint64 `json:"evictions"`
	// StoreErrors counts Puts that failed to persist (the memory tier may
	// still have accepted the entry).
	StoreErrors uint64 `json:"store_errors"`
	// BytesWritten and BytesRead count record bytes moved to and from disk.
	BytesWritten uint64 `json:"bytes_written"`
	BytesRead    uint64 `json:"bytes_read"`
}

// Cache is the two-tier content-addressed Result store. All methods are safe
// for concurrent use; multiple Caches (in multiple processes) may share one
// Dir.
type Cache struct {
	dir        string
	maxEntries int

	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recent; values are *memEntry
	stats   Stats
}

// memEntry is one LRU slot: the key (for eviction) and the encoded record.
type memEntry struct {
	key   Key
	bytes []byte
}

// New builds a cache, creating the persistent directory when one is named.
func New(opts Options) (*Cache, error) {
	max := opts.MaxEntries
	if max == 0 {
		max = DefaultMaxEntries
	}
	c := &Cache{
		dir:        opts.Dir,
		maxEntries: max,
		entries:    make(map[Key]*list.Element),
		lru:        list.New(),
	}
	if c.dir != "" {
		if err := ensureDir(c.dir); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return c, nil
}

// Get looks the key up in the memory tier, then the disk tier, promoting
// disk hits into memory. The returned Result is decoded fresh on every hit,
// so the caller owns it outright.
func (c *Cache) Get(key Key) (workloads.Result, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		raw := el.Value.(*memEntry).bytes
		c.stats.MemHits++
		c.mu.Unlock()
		if res, ok := decodeRecord(raw); ok {
			return res, true
		}
		// An undecodable memory entry means Put accepted bytes Get cannot
		// read — a programming error, but degrade to a miss, not a panic.
		c.drop(key)
		c.count(&c.stats.Misses)
		return workloads.Result{}, false
	}
	c.mu.Unlock()

	if c.dir != "" {
		raw, readErr := c.readFile(key)
		if readErr == nil {
			if res, ok := decodeRecord(raw); ok {
				c.insert(key, raw, &c.stats.DiskHits)
				return res, true
			}
			// Unreadable record: count, remove so the next Put rewrites it
			// cleanly, and report a miss.
			c.count(&c.stats.Corrupt)
			c.removeFile(key)
		}
	}
	c.count(&c.stats.Misses)
	return workloads.Result{}, false
}

// Put stores the Result under key in both tiers. Encoding is done once; the
// memory tier holds the encoded bytes and the disk tier persists the same
// bytes atomically. A disk failure is reported (and counted) but the memory
// tier keeps the entry — the cache is an optimization, not a dependency.
func (c *Cache) Put(key Key, spec string, res workloads.Result) error {
	raw, err := encodeRecord(spec, res)
	if err != nil {
		c.count(&c.stats.StoreErrors)
		return fmt.Errorf("resultcache: encode %s: %w", key, err)
	}
	c.insert(key, raw, &c.stats.Stores)
	if c.dir == "" {
		return nil
	}
	if err := c.writeFile(key, raw); err != nil {
		c.count(&c.stats.StoreErrors)
		return fmt.Errorf("resultcache: persist %s: %w", key, err)
	}
	return nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// insert adds or refreshes the memory-tier entry and bumps the given
// counter, evicting from the LRU tail past capacity.
func (c *Cache) insert(key Key, raw []byte, counter *uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	*counter++
	if c.maxEntries < 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*memEntry).bytes = raw
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&memEntry{key: key, bytes: raw})
	for c.lru.Len() > c.maxEntries {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*memEntry).key)
		c.stats.Evictions++
	}
}

// drop removes a memory-tier entry.
func (c *Cache) drop(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// count increments one of c.stats's counters under the cache lock.
func (c *Cache) count(counter *uint64) {
	c.mu.Lock()
	*counter++
	c.mu.Unlock()
}

// encodeRecord serializes one Result as a versioned record.
func encodeRecord(spec string, res workloads.Result) ([]byte, error) {
	return json.Marshal(record{
		Format: FormatVersion,
		Spec:   spec,
		Result: recResult{
			Label:        res.Label,
			SimTimePs:    int64(res.Time),
			DRAMAccesses: res.DRAMAccesses,
			Checked:      res.Checked,
			Metrics:      res.Metrics,
		},
	})
}

// decodeRecord parses a record, rejecting any malformed or wrong-version
// payload. The boolean is false for anything that should be treated as a
// cache miss.
func decodeRecord(raw []byte) (workloads.Result, bool) {
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil || rec.Format != FormatVersion {
		return workloads.Result{}, false
	}
	return workloads.Result{
		Label:        rec.Result.Label,
		Time:         sim.Duration(rec.Result.SimTimePs),
		DRAMAccesses: rec.Result.DRAMAccesses,
		Checked:      rec.Result.Checked,
		Metrics:      rec.Result.Metrics,
	}, true
}
