package engine

import (
	"container/list"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"branchprof/internal/faults"
	"branchprof/internal/flock"
	"branchprof/internal/ifprob"
	"branchprof/internal/vm"
)

// lruCache is a mutex-guarded LRU keyed by content hash.
type lruCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(max int) *lruCache {
	return &lruCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// diskVersion is the persisted entry layout version; entries written
// with any other version are recomputed.
const diskVersion = 1

// diskEntry is the serialized measurement: the run's counters and,
// for full pipeline work, its extracted branch profile. The key is
// echoed so a file renamed or copied to the wrong address is rejected.
type diskEntry struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Res     *vm.Result      `json:"result"`
	Prof    *ifprob.Profile `json:"profile,omitempty"`
}

// derivedEntry is a persisted derived payload: bytes a caller computed
// from measurements and encodes itself (today the traced replay
// summaries of internal/exp). The engine checks only the envelope —
// version and echoed key — and leaves the payload to its owner.
type derivedEntry struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Payload []byte `json:"derived"`
}

// diskCache is the persistent content-addressed measurement store:
// one JSON file per key under dir, written atomically (temp file +
// rename) so a crashed writer can only ever leave a stray temp file,
// never a truncated entry at the final path. The fault set (nil in
// production) lets chaos tests tear writes partway through to prove
// load rejects the result.
type diskCache struct {
	dir    string
	faults *faults.Set
}

func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// read returns the raw bytes of key's entry. ok reports that a file
// was read; invalid reports that one existed but could not be read.
func (d *diskCache) read(key string) (data []byte, ok, invalid bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, false, !errors.Is(err, fs.ErrNotExist)
	}
	return data, true, false
}

// load reads the entry for key. ok reports a usable entry; invalid
// reports that a file existed but was corrupt, truncated, stale, or
// misplaced (the caller counts it and recomputes).
func (d *diskCache) load(key string) (res *vm.Result, prof *ifprob.Profile, ok, invalid bool) {
	data, ok, invalid := d.read(key)
	if !ok {
		return nil, nil, false, invalid
	}
	var ent diskEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil, nil, false, true
	}
	if ent.Version != diskVersion || ent.Key != key || ent.Res == nil {
		return nil, nil, false, true
	}
	if len(ent.Res.SiteTaken) != len(ent.Res.SiteTotal) {
		return nil, nil, false, true
	}
	if ent.Prof != nil {
		if err := ent.Prof.CheckConsistent(); err != nil {
			return nil, nil, false, true
		}
	}
	return ent.Res, ent.Prof, true, false
}

// loadDerived reads the derived entry for key and returns its payload,
// with load's ok/invalid contract. Only the envelope is checked here;
// the payload's owner decodes and validates the rest.
func (d *diskCache) loadDerived(key string) (payload []byte, ok, invalid bool) {
	data, ok, invalid := d.read(key)
	if !ok {
		return nil, false, invalid
	}
	var ent derivedEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return nil, false, true
	}
	if ent.Version != diskVersion || ent.Key != key || len(ent.Payload) == 0 {
		return nil, false, true
	}
	return ent.Payload, true, false
}

// store writes the measurement entry for key.
func (d *diskCache) store(key, label string, res *vm.Result, prof *ifprob.Profile) error {
	return d.write(key, label, &diskEntry{Version: diskVersion, Key: key, Res: res, Prof: prof})
}

// storeDerived writes the derived entry for key.
func (d *diskCache) storeDerived(key, label string, payload []byte) error {
	return d.write(key, label, &derivedEntry{Version: diskVersion, Key: key, Payload: payload})
}

// write serializes ent and writes it as key's entry atomically.
// Failures are reported to the caller for counting but never interrupt
// the pipeline. A torn-write fault rule truncates the payload before
// it reaches the file, simulating a crash mid-write that still
// survived the rename.
func (d *diskCache) write(key, label string, ent any) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(ent)
	if err != nil {
		return err
	}
	// Serialize writers sharing this cache directory across processes
	// (advisory `<dir>/.branchprof.lock`, see docs/ENGINE.md). Loads
	// stay lock-free: every entry is validated on read and a bad one
	// degrades to a miss.
	lock, err := flock.Acquire(flock.CacheLockPath(d.dir))
	if err != nil {
		return err
	}
	defer lock.Unlock()
	data = data[:d.faults.Torn(faults.CacheWrite, label, len(data))]
	tmp, err := os.CreateTemp(d.dir, "entry-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
