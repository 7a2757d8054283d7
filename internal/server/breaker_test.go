package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"branchprof/internal/faults"
	"branchprof/internal/ifprob"
	"branchprof/internal/store"
	"branchprof/internal/store/memstore"
)

// The breaker state machine itself is tested in internal/circuit;
// this file covers the server's use of it: degraded compute-only
// mode, recovery, and the engine-disk error feed.

// TestDegradedComputeOnlyMode is the degraded-mode acceptance test:
// with DB saves failing (injected via internal/faults) the breaker
// opens, the server keeps answering profile and prediction requests
// from memory, and the degradation shows in responses, /healthz and
// /metrics.
func TestDegradedComputeOnlyMode(t *testing.T) {
	dbPath := t.TempDir() + "/profiles.json"
	fs := faults.NewSet(1, faults.Rule{Stage: faults.DBSave, Kind: faults.Error})
	s := newTestServer(t, Options{
		Concurrency:      1,
		DBPath:           dbPath,
		Faults:           fs,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // no recovery during this test
	})

	// First failure: still closed, but the profile did not persist.
	var pr profileResponse
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "mostly-a", countSrc, "aaab"), &pr); code != 200 {
		t.Fatalf("profile 1 = %d", code)
	}
	if pr.Persisted {
		t.Fatal("save failed but response claims persisted")
	}
	if pr.Degraded {
		t.Fatal("one failure under threshold should not report degraded")
	}

	// Second failure trips the breaker into compute-only mode.
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "no-a", countSrc, "bbbb"), &pr); code != 200 {
		t.Fatalf("profile 2 = %d", code)
	}
	if !s.Degraded() {
		t.Fatal("breaker did not open after threshold failures")
	}

	// Profiles keep accumulating in memory and responses say degraded.
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "mostly-a", countSrc, "aaab"), &pr); code != 200 {
		t.Fatalf("profile while degraded = %d", code)
	}
	if !pr.Degraded || pr.Persisted {
		t.Fatalf("degraded profile response: %+v", pr)
	}

	// Predictions still work, trained on the in-memory profiles.
	var pd predictResponse
	body := map[string]any{"program": "count", "source": countSrc, "target_dataset": "no-a"}
	if code := doJSON(t, s, "POST", "/v1/predict", body, &pd); code != 200 {
		t.Fatalf("predict while degraded = %d", code)
	}
	if pd.HeuristicOnly || len(pd.TrainedOn) != 1 || !pd.Degraded {
		t.Fatalf("degraded prediction: %+v", pd)
	}
	if pd.Eval == nil || pd.Eval.Mispredicts == 0 {
		t.Fatal("degraded prediction lost its evaluation")
	}

	// /healthz reports the degradation without failing liveness.
	var h healthResponse
	if code := doJSON(t, s, "GET", "/healthz", nil, &h); code != 200 {
		t.Fatal("healthz must stay 200 while degraded")
	}
	if h.Status != "degraded" || h.Breaker != "open" {
		t.Fatalf("healthz while degraded: %+v", h)
	}

	// Metrics: breaker open, degraded flag, error + skipped saves.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		"branchprofd_breaker_open 1",
		"branchprofd_degraded 1",
		`branchprofd_db_save_total{result="error"} 2`,
		`branchprofd_db_save_total{result="skipped"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestBreakerRecovery: once the disk heals, the half-open probe closes
// the circuit and persistence resumes — with the accumulated in-memory
// state, nothing profiled during the outage is lost.
func TestBreakerRecovery(t *testing.T) {
	dbPath := t.TempDir() + "/profiles.json"
	// Exactly the first two saves fail; everything after succeeds.
	fs := faults.NewSet(1,
		faults.Rule{Stage: faults.DBSave, Kind: faults.Error, Nth: 1},
		faults.Rule{Stage: faults.DBSave, Kind: faults.Error, Nth: 2},
	)
	s := newTestServer(t, Options{
		Concurrency:      1,
		DBPath:           dbPath,
		Faults:           fs,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
	})

	var pr profileResponse
	doJSON(t, s, "POST", "/v1/profile", profileBody("count", "d1", countSrc, "a"), &pr)
	doJSON(t, s, "POST", "/v1/profile", profileBody("count", "d2", countSrc, "b"), &pr)
	if !s.Degraded() {
		t.Fatal("breaker should be open after two save failures")
	}

	// After the cooldown the next update is the half-open probe; the
	// heal makes it succeed and close the circuit — and the save
	// flushes every profile accumulated during the outage.
	time.Sleep(30 * time.Millisecond)
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "d3", countSrc, "ab"), &pr); code != 200 {
		t.Fatal("probe request failed")
	}
	if !pr.Persisted || pr.Degraded {
		t.Fatalf("post-recovery response: %+v", pr)
	}
	if s.Degraded() {
		t.Fatal("breaker did not close after successful probe")
	}
	db, err := ifprob.Load(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Programs()); got != 3 {
		t.Fatalf("recovered database holds %d profiles, want all 3 (outage data included)", got)
	}

	var h healthResponse
	doJSON(t, s, "GET", "/healthz", nil, &h)
	if h.Status != "ok" || h.Breaker != "closed" {
		t.Fatalf("healthz after recovery: %+v", h)
	}
}

// TestEngineDiskErrorsFeedBreaker: cache-write failures inside the
// engine (a different disk path than the DB) also count against the
// persistence breaker, because feedEngineDiskHealth routes the stats
// delta in.
func TestEngineDiskErrorsFeedBreaker(t *testing.T) {
	// The engine's disk cache write fails every time.
	fs := faults.NewSet(1, faults.Rule{Stage: faults.CacheWrite, Kind: faults.Error})
	s := newTestServer(t, Options{
		CacheDir:         t.TempDir(),
		Faults:           fs,
		Concurrency:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	doJSON(t, s, "POST", "/v1/profile", profileBody("count", "e1", countSrc, "a"), nil)
	doJSON(t, s, "POST", "/v1/profile", profileBody("count", "e2", countSrc, "b"), nil)
	if !s.Degraded() {
		t.Fatal("engine cache-write failures did not degrade the server")
	}
	var h healthResponse
	doJSON(t, s, "GET", "/healthz", nil, &h)
	if h.CacheWriteErrors == 0 {
		t.Fatalf("healthz hides the cache trouble: %+v", h)
	}
}

// cancelAfterMerge is a store whose Merge cancels the request's context
// right after delegating: a client that disconnects between the merge
// and the save.
type cancelAfterMerge struct {
	store.Store
	cancel context.CancelFunc
}

func (c *cancelAfterMerge) Merge(ctx context.Context, p *ifprob.Profile) error {
	err := c.Store.Merge(ctx, p)
	c.cancel()
	return err
}

// TestClientCancelAfterMergeStillSaves: a disconnect after the merge
// landed is not a disk fault. The commit runs detached from the
// request, so the single-file save still lands and the server-wide
// breaker, which here opens on the first failure, stays closed.
func TestClientCancelAfterMergeStillSaves(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "profiles.json")
	st, _, err := memstore.Open(context.Background(), dbPath, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newTestServer(t, Options{
		Concurrency:      1,
		Store:            &cancelAfterMerge{Store: st, cancel: cancel},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	body, err := json.Marshal(profileBody("count", "gone", countSrc, "aab"))
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/profile", bytes.NewReader(body)).WithContext(ctx)
	s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	if s.Degraded() {
		t.Fatal("a client disconnect between merge and save opened the breaker")
	}
	db, err := ifprob.Load(dbPath)
	if err != nil {
		t.Fatalf("loading the saved database: %v", err)
	}
	if db.Get("count@gone") == nil {
		t.Fatal("the merged profile is not in the saved file")
	}
}
