package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"branchprof/internal/faults"
)

// loadPayload is LoadDerived collecting the decoded payload.
func loadPayload(e *Engine, key string, reject bool) ([]byte, bool) {
	var got []byte
	ok := e.LoadDerived(key, "t", func(b []byte) error {
		if reject {
			return errors.New("not a payload of mine")
		}
		got = append([]byte(nil), b...)
		return nil
	})
	return got, ok
}

// TestDerivedEntriesWithoutCacheDir: an engine with no cache directory
// keeps derived entries in memory: a stored payload hits, a missing
// one misses, both are counted, nothing reaches the disk, and the
// replay -stats line appears once lookups happen (never before).
func TestDerivedEntriesWithoutCacheDir(t *testing.T) {
	e := New(Options{})
	if s := e.Stats().String(); strings.Contains(s, "replay") {
		t.Fatalf("-stats before any replay lookup mentions replays:\n%s", s)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(cwd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loadPayload(e, "k", false); ok {
		t.Fatal("LoadDerived hit before any store")
	}
	e.StoreDerived("k", "t", []byte("payload"))
	if got, ok := loadPayload(e, "k", false); !ok || string(got) != "payload" {
		t.Fatalf("in-memory derived entry loaded %q (hit=%t), want a hit", got, ok)
	}
	st := e.Stats()
	if st.ReplayHits != 1 || st.ReplayMisses != 1 || st.ReplayInvalid != 0 {
		t.Fatalf("replay hits/misses/invalid = %d/%d/%d, want 1/1/0", st.ReplayHits, st.ReplayMisses, st.ReplayInvalid)
	}
	if st.DiskHits+st.DiskMisses+st.DiskWriteErrs != 0 {
		t.Fatalf("derived entries touched the disk counters without a cache directory: %+v", st)
	}
	if want := "\nengine: replay cache 1/2 hits"; !strings.Contains(st.String(), want) {
		t.Fatalf("-stats lacks %q:\n%s", want, st.String())
	}
	after, err := os.ReadDir(cwd)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("derived entries without a cache directory wrote files: %d entries in %s, was %d", len(after), cwd, len(before))
	}
}

// TestDerivedMemoryTierBounded: the memory tier holds at most
// MemEntries payloads, evicting the least recently used, and a disk
// hit refills it.
func TestDerivedMemoryTierBounded(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{MemEntries: 2, CacheDir: dir})
	for _, k := range []string{"a", "b", "c"} {
		e.StoreDerived(k, "t", []byte("payload-"+k))
	}
	if n := e.derived.len(); n != 2 {
		t.Fatalf("memory tier holds %d payloads, want MemEntries (2)", n)
	}
	if _, ok := e.derived.get("a"); ok {
		t.Fatal("least recently used payload was kept")
	}
	// "a" is still on disk: the lookup hits there and refills memory.
	if got, ok := loadPayload(e, "a", false); !ok || string(got) != "payload-a" {
		t.Fatalf("disk tier loaded %q (hit=%t), want payload-a", got, ok)
	}
	if _, ok := e.derived.get("a"); !ok {
		t.Fatal("a disk hit did not fill the memory tier")
	}
	if n := e.derived.len(); n != 2 {
		t.Fatalf("memory tier holds %d payloads after a refill, want 2", n)
	}
}

// TestDerivedEntriesRoundTrip: a derived payload survives a store and
// a load byte for byte, in the measurement cache's directory, with its
// own hit/miss/invalid counters, its own -stats line and gauges.
func TestDerivedEntriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{CacheDir: dir})
	payload := []byte{0, 1, 2, 0xff, '\n', '"'}
	if _, ok := loadPayload(e, "k1", false); ok {
		t.Fatal("hit before any store")
	}
	e.StoreDerived("k1", "t", payload)
	got, ok := loadPayload(New(Options{CacheDir: dir}), "k1", false)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("second engine loaded %q (hit=%t), want %q", got, ok, payload)
	}
	if got, ok = loadPayload(e, "k1", false); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("loaded %q (hit=%t), want %q", got, ok, payload)
	}

	// A payload its owner rejects counts as invalid and reads as a miss.
	if _, ok := loadPayload(e, "k1", true); ok {
		t.Fatal("rejected payload reported as a hit")
	}
	// An entry copied to another key fails the echoed-key check.
	data, err := os.ReadFile(filepath.Join(dir, "k1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k2.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadPayload(e, "k2", false); ok {
		t.Fatal("misplaced entry reported as a hit")
	}

	st := e.Stats()
	if st.ReplayHits != 1 || st.ReplayMisses != 3 || st.ReplayInvalid != 2 {
		t.Fatalf("replay hits/misses/invalid = %d/%d/%d, want 1/3/2", st.ReplayHits, st.ReplayMisses, st.ReplayInvalid)
	}
	if st.MemHits+st.MemMisses+st.DiskHits+st.DiskMisses+st.DiskInvalid != 0 {
		t.Fatalf("derived lookups moved the measurement cache counters: %+v", st)
	}
	if want := "\nengine: replay cache 1/4 hits, 2 invalid entries recomputed"; !strings.Contains(st.String(), want) {
		t.Fatalf("-stats lacks %q:\n%s", want, st.String())
	}

	var prom strings.Builder
	if err := e.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"branchprof_engine_replay_hits 1\n",
		"branchprof_engine_replay_misses 3\n",
		"branchprof_engine_replay_invalid 2\n",
	} {
		if !strings.Contains(prom.String(), line) {
			t.Errorf("Prometheus export lacks %q", line)
		}
	}
}

// TestDerivedEntriesFaults: derived reads and writes go through the
// cache-read and cache-write fault stages and their retry policy — a
// transient read fault is retried into a hit, a torn write is rejected
// on load.
func TestDerivedEntriesFaults(t *testing.T) {
	dir := t.TempDir()
	New(Options{CacheDir: dir}).StoreDerived("k", "replay:p/d", []byte("payload"))
	flaky := New(Options{CacheDir: dir, Faults: faults.NewSet(1,
		faults.Rule{Stage: faults.CacheRead, Kind: faults.Error, Nth: 1})})
	if got, ok := loadPayload(flaky, "k", false); !ok || string(got) != "payload" {
		t.Fatalf("read after one transient fault = %q (hit=%t), want a hit", got, ok)
	}
	if st := flaky.Stats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}

	torn := New(Options{CacheDir: dir, Faults: faults.NewSet(1,
		faults.Rule{Stage: faults.CacheWrite, Kind: faults.TornWrite, Label: "replay:"})})
	torn.StoreDerived("k", "replay:p/d", []byte("payload"))
	clean := New(Options{CacheDir: dir})
	if _, ok := loadPayload(clean, "k", false); ok {
		t.Fatal("torn derived entry reported as a hit")
	}
	if st := clean.Stats(); st.ReplayInvalid != 1 {
		t.Fatalf("torn entry: %d invalid, want 1", st.ReplayInvalid)
	}
}
