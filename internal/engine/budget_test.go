package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchprof/internal/mfc"
)

// dirBytes sums the sizes of the cache entry files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, f := range (&diskCache{dir: dir}).scan() {
		total += f.size
	}
	return total
}

// entrySize is the on-disk size of one derived entry for key and
// payload.
func entrySize(t *testing.T, key string, payload []byte) int64 {
	t.Helper()
	dir := t.TempDir()
	New(Options{CacheDir: dir}).StoreDerived(key, "t", payload)
	info, err := os.Stat(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestCacheBudgetEvictsLeastRecentlyUsed: a write that takes the cache
// directory past CacheMaxBytes evicts the entries used least recently
// (written or read longest ago) until the directory is back under 7/8
// of the budget, and counts them in Stats, -stats and the gauge.
func TestCacheBudgetEvictsLeastRecentlyUsed(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 300)
	size := entrySize(t, "k0", payload)
	dir := t.TempDir()
	e := New(Options{CacheDir: dir, CacheMaxBytes: 4 * size})
	// Write k0..k3 with mtimes a minute apart, oldest first: file
	// timestamps come from a coarse clock, so back-to-back writes
	// would otherwise tie.
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		e.StoreDerived(k, "t", payload)
		if err := os.Chtimes(filepath.Join(dir, k+".json"), time.Time{}, base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evictions != 0 {
		t.Fatalf("%d evictions with the directory at its budget, want 0", st.Evictions)
	}
	// Reading k0 (from disk: a new engine has no memory tier) makes it
	// the most recently used entry.
	if _, ok := loadPayload(New(Options{CacheDir: dir}), "k0", false); !ok {
		t.Fatal("k0 missing before any eviction")
	}
	e.StoreDerived("k4", "t", payload)

	for k, want := range map[string]bool{"k0": true, "k1": false, "k2": false, "k3": true, "k4": true} {
		_, err := os.Stat(filepath.Join(dir, k+".json"))
		if got := err == nil; got != want {
			t.Errorf("%s present = %t, want %t", k, got, want)
		}
	}
	if got := dirBytes(t, dir); got > 4*size-4*size/8 {
		t.Fatalf("directory holds %d bytes after eviction, want at most 7/8 of %d", got, 4*size)
	}
	st := e.Stats()
	if st.Evictions != 2 {
		t.Fatalf("Stats.Evictions = %d, want 2", st.Evictions)
	}
	if !strings.Contains(st.String(), ", 2 evicted") {
		t.Fatalf("-stats lacks the eviction count:\n%s", st.String())
	}
	var prom strings.Builder
	if err := e.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "branchprof_engine_cache_evictions 2\n") {
		t.Fatal("Prometheus export lacks branchprof_engine_cache_evictions 2")
	}
	// An evicted entry is a plain miss, never an invalid one.
	fresh := New(Options{CacheDir: dir})
	if _, ok := loadPayload(fresh, "k1", false); ok {
		t.Fatal("evicted entry reported as a hit")
	}
	if st := fresh.Stats(); st.ReplayInvalid != 0 {
		t.Fatalf("evicted entry counted %d invalid", st.ReplayInvalid)
	}
}

// TestCacheBudgetMeasurements: unique measurements written through
// Execute keep the directory under its budget too, with every lookup
// of an evicted one a clean miss that recomputes.
func TestCacheBudgetMeasurements(t *testing.T) {
	dir := t.TempDir()
	budget := int64(4 << 10)
	e := New(Options{CacheDir: dir, CacheMaxBytes: budget})
	for i := 0; i < 40; i++ {
		if _, err := e.Execute(testSpec(strings.Repeat("a", i))); err != nil {
			t.Fatal(err)
		}
		if got := dirBytes(t, dir); got > budget {
			t.Fatalf("after %d writes the directory holds %d bytes, budget %d", i+1, got, budget)
		}
	}
	if st := e.Stats(); st.Evictions == 0 {
		t.Fatal("40 unique measurements under a 4 KiB budget evicted nothing")
	}
	again := New(Options{CacheDir: dir, CacheMaxBytes: budget})
	if _, err := again.Execute(testSpec("")); err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.DiskInvalid != 0 || st.DiskMisses != 1 || st.Runs != 1 {
		t.Fatalf("evicted measurement: %d invalid, %d misses, %d runs; want a clean miss and one run", st.DiskInvalid, st.DiskMisses, st.Runs)
	}
}

// TestCacheEvictionRacesReads: readers in other engines (standing
// in for other processes) read entries while a writer under a small
// budget evicts them. A reader that loses a file sees a miss, never an
// invalid entry, a retry or a wrong payload.
func TestCacheEvictionRacesReads(t *testing.T) {
	dir := t.TempDir()
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 200) }
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	size := entrySize(t, key(0), payload(0))
	writer := New(Options{CacheDir: dir, CacheMaxBytes: 6 * size})

	const n = 200
	var written atomic.Int64
	var wg sync.WaitGroup
	readers := []*Engine{New(Options{CacheDir: dir, MemEntries: 1}), New(Options{CacheDir: dir, MemEntries: 1})}
	errs := make([]error, len(readers))
	for r, eng := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for written.Load() < n {
				w := int(written.Load())
				if w == 0 {
					continue
				}
				i := rng.Intn(w)
				var got []byte
				if eng.LoadDerived(key(i), "t", func(b []byte) error {
					got = append([]byte(nil), b...)
					return nil
				}) && !bytes.Equal(got, payload(i)) {
					errs[r] = fmt.Errorf("%s read back a wrong payload", key(i))
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		writer.StoreDerived(key(i), "t", payload(i))
		written.Store(int64(i + 1))
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
	for r, eng := range readers {
		if st := eng.Stats(); st.ReplayInvalid != 0 || st.Retries != 0 || st.RetryGiveUps != 0 || st.Panics != 0 {
			t.Errorf("reader %d: %d invalid, %d retries, %d give-ups, %d panics; want plain misses",
				r, st.ReplayInvalid, st.Retries, st.RetryGiveUps, st.Panics)
		}
	}
	if st := writer.Stats(); st.Evictions == 0 || st.DiskWriteErrs != 0 {
		t.Fatalf("writer: %d evictions, %d write errors", st.Evictions, st.DiskWriteErrs)
	}
	if got := dirBytes(t, dir); got > 6*size {
		t.Fatalf("directory holds %d bytes, budget %d", got, 6*size)
	}
}

// TestDigestMemoized: the engine hashes a compiled program once, for
// Digest callers and for the codegen binding of its image alike.
func TestDigestMemoized(t *testing.T) {
	e := New(Options{})
	prog, err := e.Compile("count", countSrc, mfc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := e.Digest(prog), e.Digest(prog)
	if d1 != d2 || d1 == "" {
		t.Fatalf("Digest returned %q then %q", d1, d2)
	}
	if _, err := e.Run(prog, "", []byte("ab"), nil); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Digests; got != 1 {
		t.Fatalf("program hashed %d times, want 1", got)
	}
}
