package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// resultCache is the on-disk tier of the result store. The job table
// holds every finished result in memory; with a directory set, each one
// is also written through to <dir>/<key>.json, so a restarted or
// crashed daemon starts warm. Without a directory it stores nothing and
// every Get misses. Keys are CacheKey hex strings.
//
// Writes are atomic (temp file + fsync + rename), so a crash mid-write
// can never leave a torn file under a valid key name; reads are still
// validated and a corrupt entry is removed and reported as a miss
// rather than served.
type resultCache struct {
	dir     string       // "" disables the cache
	spills  *obs.Counter // results written through
	corrupt *obs.Counter // corrupt files rejected (and removed)
}

func newResultCache(dir string, spills, corrupt *obs.Counter) *resultCache {
	if dir != "" {
		// Sweep temp files a crashed write left behind; they were never
		// renamed into place, so they are garbage by construction.
		if stale, err := filepath.Glob(filepath.Join(dir, "spill-*.tmp")); err == nil {
			for _, p := range stale {
				os.Remove(p)
			}
		}
	}
	return &resultCache{dir: dir, spills: spills, corrupt: corrupt}
}

// Get returns the stored bytes for key. A file that fails validation —
// a torn or bit-rotted write — is removed and reported as a miss, never
// served.
func (c *resultCache) Get(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.spillPath(key))
	if err != nil {
		return nil, false
	}
	if len(data) == 0 || !json.Valid(data) {
		os.Remove(c.spillPath(key))
		c.corrupt.Add(1)
		return nil, false
	}
	return data, true
}

// Put writes data through to <dir>/<key>.json atomically: the bytes
// land in a temp file in the directory, are fsynced, and are renamed
// over the final name — so that name only ever refers to a complete
// file, whatever the process does mid-write. Without a directory it is
// a no-op.
func (c *resultCache) Put(key string, data []byte) error {
	if c.dir == "" {
		return nil
	}
	if _, fired := faultinject.Hit(faultinject.CacheSpillErr); fired {
		return errors.New("serve: faultinject: cache-spill-error")
	}
	tmp, err := os.CreateTemp(c.dir, "spill-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), c.spillPath(key)); err != nil {
		return err
	}
	c.spills.Add(1)
	return nil
}

func (c *resultCache) spillPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}
