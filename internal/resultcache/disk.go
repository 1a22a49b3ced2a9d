package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
)

// The persistent tier stores one JSON record per key, sharded by the first
// byte of the hash (dir/ab/abcdef….json) so no directory grows past a few
// thousand entries. Writes go to a same-directory temp file and rename into
// place: rename is atomic on POSIX, so a reader (or a second writer in
// another process) either sees a complete previous record or a complete new
// one, never a partial file. Two writers racing the same key both hold full
// records for the same content address, so last-rename-wins is harmless.

// ensureDir creates the cache root.
func ensureDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create cache dir: %w", err)
	}
	return nil
}

// path returns the sharded record path for a key.
func (c *Cache) path(key Key) string {
	hexKey := key.Hex()
	return filepath.Join(c.dir, hexKey[:2], hexKey+".json")
}

// readFile loads a record's bytes, counting the read traffic. A missing or
// unreadable file is an error for the caller to treat as a miss.
func (c *Cache) readFile(key Key) ([]byte, error) {
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.BytesRead += uint64(len(raw))
	c.mu.Unlock()
	return raw, nil
}

// writeFile persists a record atomically: temp file in the shard directory,
// fsync-free write (the cache is a recomputable store, not a journal), then
// rename over the final name.
func (c *Cache) writeFile(key Key, raw []byte) error {
	final := c.path(key)
	shard := filepath.Dir(final)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(shard, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	c.mu.Lock()
	c.stats.BytesWritten += uint64(len(raw))
	c.mu.Unlock()
	return nil
}

// removeFile deletes a record file, ignoring failures — the worst case is
// re-reading a corrupt record and counting it again.
func (c *Cache) removeFile(key Key) { os.Remove(c.path(key)) }
