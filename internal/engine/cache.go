package engine

import (
	"container/list"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	c.push(key, val)
}

// getOrAdd returns key's value when valid accepts it, and otherwise
// stores and returns mk()'s, so concurrent callers share one value.
func (c *lruCache) getOrAdd(key string, valid func(any) bool, mk func() any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.ll.MoveToFront(el)
		if !valid(ent.val) {
			ent.val = mk()
		}
		return ent.val
	}
	val := mk()
	c.push(key, val)
	return val
}

// push inserts a new key as the most recent entry and evicts the
// least recent beyond the bound. c.mu must be held.
func (c *lruCache) push(key string, val any) {
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

// DefaultCacheMaxBytes is the cache directory's default byte budget
// (Options.CacheMaxBytes). A full paper pass stores ~125 entries in
// ~1.9 MB, so it fits many times over.
const DefaultCacheMaxBytes int64 = 64 << 20

// diskCache is the persistent content-addressed measurement store:
// one JSON file per key under dir, written atomically (temp file +
// rename) so a crashed writer can only ever leave a stray temp file,
// never a truncated entry at the final path. The directory holds at
// most max bytes of entries: each write accounts for its bytes and,
// past the budget, evicts the least recently used entries. The fault
// set (nil in production) lets chaos tests tear writes partway through
// to prove load rejects the result.
type diskCache struct {
	dir     string
	faults  *faults.Set
	max     int64          // byte budget for the entries
	evicted *atomic.Uint64 // the engine's eviction counter
	mu      sync.Mutex     // orders this process's writers (with the directory lock)
	size    int64          // estimated entry bytes under dir; -1 until a write scans it
}

func newDiskCache(dir string, max int64, fs *faults.Set, evicted *atomic.Uint64) *diskCache {
	return &diskCache{dir: dir, faults: fs, max: max, evicted: evicted, size: -1}
}

func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// read returns the raw bytes of key's entry and marks it recently
// used for eviction. ok reports that a file was read; invalid reports
// that one existed but could not be read. A file that is missing, or
// evicted by another writer while this read ran, is a plain miss.
func (d *diskCache) read(key string) (data []byte, ok, invalid bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, !errors.Is(err, fs.ErrNotExist)
	}
	// The mtime is the entry's last use; losing the file meanwhile is
	// harmless.
	os.Chtimes(path, time.Time{}, time.Now()) //nolint:errcheck
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
	d.mu.Lock()
	defer d.mu.Unlock()
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
	d.account(int64(len(data)))
	return nil
}

// account adds a written entry's n bytes to the directory's size and,
// past the budget, rescans the directory (other processes write to it
// too) and evicts the least recently used entries, oldest mtime first,
// down to 7/8 of the budget, so a run of writes does not rescan on
// every one. Temp files count and are evicted like entries: with the
// directory lock held, any that exist were left by crashed writers.
// Callers hold d.mu and the directory lock. A zero max (a bare
// diskCache; the engine always sets one) means no budget.
func (d *diskCache) account(n int64) {
	if d.max <= 0 {
		return
	}
	if d.size >= 0 && d.size+n <= d.max {
		d.size += n
		return
	}
	ents := d.scan()
	var total int64
	for _, e := range ents {
		total += e.size
	}
	if total > d.max {
		sort.Slice(ents, func(i, j int) bool {
			if !ents[i].used.Equal(ents[j].used) {
				return ents[i].used.Before(ents[j].used)
			}
			return ents[i].name < ents[j].name
		})
		low := d.max - d.max/8
		for _, e := range ents {
			if total <= low {
				break
			}
			err := os.Remove(filepath.Join(d.dir, e.name))
			if err == nil {
				d.evicted.Add(1)
			}
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				total -= e.size
			}
		}
	}
	d.size = total
}

// cacheFile is one entry file found by scan.
type cacheFile struct {
	name string
	size int64
	used time.Time // mtime: written or last read
}

// scan lists the directory's entry files: finished entries and temp
// files, never the lock file or anything else.
func (d *diskCache) scan() []cacheFile {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var out []cacheFile
	for _, de := range des {
		name := de.Name()
		if !de.Type().IsRegular() || !(strings.HasSuffix(name, ".json") || strings.HasPrefix(name, "entry-") && strings.HasSuffix(name, ".tmp")) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // evicted or replaced since ReadDir
		}
		out = append(out, cacheFile{name: name, size: info.Size(), used: info.ModTime()})
	}
	return out
}
