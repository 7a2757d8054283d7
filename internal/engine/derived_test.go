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
// reports itself non-persistent, never hits, counts nothing and prints
// no replay line.
func TestDerivedEntriesWithoutCacheDir(t *testing.T) {
	e := New(Options{})
	if e.Persistent() {
		t.Fatal("engine without a cache directory reports Persistent")
	}
	e.StoreDerived("k", "t", []byte("payload"))
	if _, ok := loadPayload(e, "k", false); ok {
		t.Fatal("LoadDerived hit without a cache directory")
	}
	st := e.Stats()
	if st.ReplayHits+st.ReplayMisses+st.ReplayInvalid != 0 {
		t.Fatalf("replay counters moved without a cache directory: %+v", st)
	}
	if s := st.String(); strings.Contains(s, "replay") {
		t.Fatalf("-stats without replay lookups mentions replays:\n%s", s)
	}
}

// TestDerivedEntriesRoundTrip: a derived payload survives a store and
// a load byte for byte, in the measurement cache's directory, with its
// own hit/miss/invalid counters, its own -stats line and gauges.
func TestDerivedEntriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{CacheDir: dir})
	if !e.Persistent() {
		t.Fatal("engine with a cache directory is not Persistent")
	}
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
