package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/resil"
)

// DiskCache is the persistent, content-addressed store behind the run
// scheduler: one JSON file per run outcome, named by the run fingerprint
// and fanned into 256 prefix directories. A warm cache lets a repeat
// rmexperiments render of every experiment skip simulation entirely.
//
// Robustness contract: any entry that cannot be read back exactly — a
// truncated write, a schema bump, manual corruption — is a miss, never an
// error; the scheduler falls back to simulating and rewrites the entry.
// Corrupt entries are additionally quarantined: the unreadable file is
// renamed aside with a ".corrupt" suffix and counted, so bit-rot is
// visible to operators instead of silently re-simulated around forever.
type DiskCache struct {
	dir string
	fs  resil.FS

	corrupt atomic.Uint64
	// OnCorrupt, when set, observes each quarantined entry (the rmserved
	// daemon wires it to its obs metrics). Set before first use; called
	// with the entry's original path.
	OnCorrupt func(path string)
}

// OpenDiskCache creates the cache directory if needed and returns a
// handle. The directory may be shared by concurrent processes: writes are
// atomic (temp file + rename), so readers only ever see whole entries.
func OpenDiskCache(dir string) (*DiskCache, error) {
	return OpenDiskCacheFS(dir, nil)
}

// OpenDiskCacheFS is OpenDiskCache writing through an explicit
// filesystem seam (nil means the real one) — the fault-injection tests
// fail cache I/O deterministically through it.
func OpenDiskCacheFS(dir string, fsys resil.FS) (*DiskCache, error) {
	if fsys == nil {
		fsys = resil.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: opening run cache: %w", err)
	}
	return &DiskCache{dir: dir, fs: fsys}, nil
}

// Dir returns the cache's root directory.
func (c *DiskCache) Dir() string { return c.dir }

// CorruptCount reports how many corrupt entries this handle has
// quarantined since it was opened.
func (c *DiskCache) CorruptCount() uint64 { return c.corrupt.Load() }

// cacheEnvelope is the on-disk layout. Key is stored redundantly and
// verified on read, so a file that was renamed, cross-copied, or written
// under a different fingerprint scheme can never satisfy a lookup.
type cacheEnvelope struct {
	Schema  int           `json:"schema"`
	Key     string        `json:"key"`
	Outcome api.RunResult `json:"outcome"`
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get looks a run outcome up by fingerprint. ok is false on any miss,
// including unreadable or mismatched entries; those are quarantined.
func (c *DiskCache) Get(key string) (api.RunResult, bool) {
	if len(key) < 2 {
		return api.RunResult{}, false
	}
	path := c.path(key)
	data, err := c.fs.ReadFile(path)
	if err != nil {
		// Absent or unreadable is a plain miss; only a file that exists
		// but decodes wrong is quarantinable corruption.
		return api.RunResult{}, false
	}
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Schema != cacheSchema || env.Key != key {
		c.quarantine(path)
		return api.RunResult{}, false
	}
	return env.Outcome, true
}

// quarantine moves a corrupt entry aside so the slot is writable again
// and the damage stays inspectable. Best effort: a failed rename still
// counts the corruption, and the next Get re-detects it.
func (c *DiskCache) quarantine(path string) {
	c.corrupt.Add(1)
	_ = c.fs.Rename(path, path+".corrupt")
	if c.OnCorrupt != nil {
		c.OnCorrupt(path)
	}
}

// Put stores one run outcome, replacing any existing entry atomically.
// Failures are transient (disk pressure, permissions flaps): callers
// that retry at all should classify them retryable.
func (c *DiskCache) Put(key string, out api.RunResult) error {
	if len(key) < 2 {
		return fmt.Errorf("experiment: run cache key %q too short", key)
	}
	data, err := json.Marshal(cacheEnvelope{Schema: cacheSchema, Key: key, Outcome: out})
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.path(key))
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return resil.Transient(err)
	}
	tmp, err := c.fs.CreateTemp(dir, "run-*.tmp")
	if err != nil {
		return resil.Transient(err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		c.fs.Remove(tmp.Name())
		return resil.Transient(err)
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(tmp.Name())
		return resil.Transient(err)
	}
	if err := c.fs.Rename(tmp.Name(), c.path(key)); err != nil {
		c.fs.Remove(tmp.Name())
		return resil.Transient(err)
	}
	return nil
}

// Len counts the entries currently on disk (diagnostics and tests).
func (c *DiskCache) Len() int {
	n := 0
	_ = filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}
