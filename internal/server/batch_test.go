package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestProfileBatch: a mixed batch fails per-entry, succeeds per-entry,
// and lands in the store with one save.
func TestProfileBatch(t *testing.T) {
	dbPath := t.TempDir() + "/profiles.json"
	s := newTestServer(t, Options{Concurrency: 2, DBPath: dbPath})

	body := map[string]any{"entries": []map[string]any{
		profileBody("count", "d1", countSrc, "aaab"),
		profileBody("count", "d2", countSrc, "bbbb"),
		profileBody("bad name!", "d", countSrc, ""),
		profileBody("broken", "d", "func main() int { return undefined; }", ""),
	}}
	var resp batchResponse
	if code := doJSON(t, s, "POST", "/v1/profile/batch", body, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	if resp.OK != 2 || resp.Failed != 2 {
		t.Fatalf("ok/failed = %d/%d, want 2/2", resp.OK, resp.Failed)
	}
	if !resp.Persisted {
		t.Fatal("batch with a healthy disk did not persist")
	}
	wantStatus := []int{200, 200, 400, 400}
	for i, want := range wantStatus {
		if resp.Results[i].Index != i || resp.Results[i].Status != want {
			t.Fatalf("entry %d = %+v, want status %d", i, resp.Results[i], want)
		}
	}
	if p := resp.Results[0].Profile; p == nil || p.Executed == 0 || !p.Persisted {
		t.Fatalf("entry 0 profile: %+v", resp.Results[0].Profile)
	}

	// Both datasets are in the inventory; the same batch again
	// accumulates rather than conflicting.
	var inv struct {
		Programs []programInfo `json:"programs"`
		Total    int           `json:"total"`
	}
	doJSON(t, s, "GET", "/v1/programs", nil, &inv)
	if inv.Total != 1 || strings.Join(inv.Programs[0].Datasets, ",") != "d1,d2" {
		t.Fatalf("inventory after batch: %+v", inv)
	}

	// A conflicting entry inside a batch is a per-entry 409.
	other := "func main() int { if (getc() > 0) { return 1; } return 0; }"
	body = map[string]any{"entries": []map[string]any{
		profileBody("count", "d1", other, "aa"),
	}}
	doJSON(t, s, "POST", "/v1/profile/batch", body, &resp)
	if resp.Results[0].Status != http.StatusConflict {
		t.Fatalf("conflicting batch entry = %+v, want 409", resp.Results[0])
	}
}

// TestProfileBatchLimits: malformed batch bodies get typed statuses.
func TestProfileBatchLimits(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 1})
	if code := doJSON(t, s, "POST", "/v1/profile/batch", map[string]any{"entries": []any{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", code)
	}
	entries := make([]map[string]any, maxBatchEntries+1)
	for i := range entries {
		entries[i] = profileBody("p", "d", "func main() int { return 0; }", "")
	}
	if code := doJSON(t, s, "POST", "/v1/profile/batch", map[string]any{"entries": entries}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch = %d, want 413", code)
	}
	if code := doJSON(t, s, "GET", "/v1/profile/batch", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatal("GET batch should be 405")
	}
}

// streamLines posts raw NDJSON and decodes every response line.
func streamLines(t *testing.T, s *Server, body string) []map[string]any {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/profile/stream", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("undecodable stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, v)
	}
	return lines
}

// TestProfileStream: NDJSON in, NDJSON out — result per line, summary
// last, profiles durable, malformed lines failing alone.
func TestProfileStream(t *testing.T) {
	dbPath := t.TempDir() + "/profiles.d"
	s := newTestServer(t, Options{Concurrency: 2, DBPath: dbPath, Shards: 2})

	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	body := enc(profileBody("count", "d1", countSrc, "aaab")) + "\n" +
		"{not json\n" +
		enc(profileBody("count", "d2", countSrc, "bbbb")) + "\n"

	lines := streamLines(t, s, body)
	if len(lines) != 4 { // 3 results + summary
		t.Fatalf("stream returned %d lines, want 4: %v", len(lines), lines)
	}
	for i, wantStatus := range []float64{200, 400, 200} {
		if lines[i]["status"] != wantStatus {
			t.Fatalf("line %d = %v, want status %v", i, lines[i], wantStatus)
		}
	}
	sum := lines[3]
	if sum["done"] != true || sum["lines"] != float64(3) || sum["ok"] != float64(2) || sum["failed"] != float64(1) {
		t.Fatalf("summary = %v", sum)
	}
	if sum["persisted"] != true {
		t.Fatalf("stream did not persist: %v", sum)
	}

	// The sharded store holds both keys durably: a fresh server on the
	// same path sees them.
	s2 := newTestServer(t, Options{Concurrency: 1, DBPath: dbPath})
	var inv struct {
		Programs []programInfo `json:"programs"`
	}
	doJSON(t, s2, "GET", "/v1/programs", nil, &inv)
	if len(inv.Programs) != 1 || strings.Join(inv.Programs[0].Datasets, ",") != "d1,d2" {
		t.Fatalf("inventory after stream restart: %+v", inv.Programs)
	}

	// An empty stream is fine: zero lines, nothing persisted.
	lines = streamLines(t, s, "\n\n")
	if len(lines) != 1 || lines[0]["lines"] != float64(0) || lines[0]["persisted"] != false {
		t.Fatalf("empty stream = %v", lines)
	}
}

// flushCounter is a response recorder that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestProfileStreamFlushesWhenBlocking: a body sent up front is
// answered without a flush per line. The handler flushes the headers,
// its buffered results before it next reads the body, and the summary
// — three flushes for 32 lines read in one chunk, not one per line.
func TestProfileStreamFlushesWhenBlocking(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})
	var body strings.Builder
	for i := 0; i < 32; i++ {
		entry, err := json.Marshal(profileBody("count", fmt.Sprintf("d%d", i), countSrc, "aaab"))
		if err != nil {
			t.Fatal(err)
		}
		body.Write(entry)
		body.WriteByte('\n')
	}
	req := httptest.NewRequest("POST", "/v1/profile/stream", strings.NewReader(body.String()))
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream = %d: %s", rec.Code, rec.Body.String())
	}
	if got := strings.Count(rec.Body.String(), "\n"); got != 33 {
		t.Fatalf("stream answered %d lines, want 32 results + summary", got)
	}
	if !strings.Contains(rec.Body.String(), `"ok":32`) {
		t.Fatalf("summary does not count 32 accepted lines: %s", rec.Body.String())
	}
	if rec.flushes != 3 {
		t.Fatalf("stream flushed %d times for 32 lines, want 3 (headers, before the next read, summary)", rec.flushes)
	}
}

// TestProfileStreamClientDisconnect: a client that vanishes mid-stream
// must not cost the profiles it already streamed — the handler's final
// flush runs under context.WithoutCancel, so every accepted entry
// reaches disk and no shard is left dirty.
func TestProfileStreamClientDisconnect(t *testing.T) {
	dbPath := t.TempDir() + "/profiles.d"
	s := newTestServer(t, Options{Concurrency: 2, DBPath: dbPath, Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/profile/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}

	// Stream two entries and wait for their acknowledgement lines: both
	// are merged (and the shard dirty) before the disconnect.
	lines := bufio.NewScanner(resp.Body)
	for i, ds := range []string{"d1", "d2"} {
		entry, err := json.Marshal(profileBody("count", ds, countSrc, "aaab"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(append(entry, '\n')); err != nil {
			t.Fatal(err)
		}
		if !lines.Scan() {
			t.Fatalf("no response line for entry %d: %v", i, lines.Err())
		}
		var got batchEntry
		if err := json.Unmarshal(lines.Bytes(), &got); err != nil {
			t.Fatalf("undecodable line %q: %v", lines.Text(), err)
		}
		if got.Status != http.StatusOK {
			t.Fatalf("entry %d = %+v, want 200", i, got)
		}
	}

	// Drop the connection without finishing the stream: the request
	// context the handler holds is cancelled from under it.
	cancel()
	pw.CloseWithError(context.Canceled) //nolint:errcheck // pipe close cannot fail

	// The WithoutCancel final flush must still land both entries:
	// every shard clean, both datasets durable on a fresh open.
	deadline := time.Now().Add(10 * time.Second)
	for {
		clean := true
		for _, sh := range s.store.Stats().Shards {
			if sh.Dirty {
				clean = false
			}
		}
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards still dirty after disconnect: %+v", s.store.Stats().Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s2 := newTestServer(t, Options{Concurrency: 1, DBPath: dbPath})
	var inv struct {
		Programs []programInfo `json:"programs"`
	}
	doJSON(t, s2, "GET", "/v1/programs", nil, &inv)
	if len(inv.Programs) != 1 || strings.Join(inv.Programs[0].Datasets, ",") != "d1,d2" {
		t.Fatalf("profiles accepted before disconnect were lost: %+v", inv.Programs)
	}
}

// TestShardedServerEndToEnd: a server on a sharded store profiles,
// predicts, pages the inventory, and exposes per-shard health and
// metrics.
func TestShardedServerEndToEnd(t *testing.T) {
	dbPath := t.TempDir() + "/profiles.d"
	s := newTestServer(t, Options{Concurrency: 2, DBPath: dbPath, Shards: 4})

	var pr profileResponse
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "mostly-a", countSrc, "aaab"), &pr); code != 200 {
		t.Fatalf("profile = %d", code)
	}
	if !pr.Persisted || pr.Degraded {
		t.Fatalf("sharded profile response: %+v", pr)
	}
	doJSON(t, s, "POST", "/v1/profile", profileBody("count", "no-a", countSrc, "bbbb"), &pr)
	doJSON(t, s, "POST", "/v1/profile", profileBody("other", "d", countSrc, "ab"), &pr)

	// Prediction trains across shards transparently.
	var pd predictResponse
	body := map[string]any{"program": "count", "source": countSrc, "target_dataset": "no-a"}
	if code := doJSON(t, s, "POST", "/v1/predict", body, &pd); code != 200 {
		t.Fatalf("predict = %d", code)
	}
	if pd.HeuristicOnly || len(pd.TrainedOn) != 1 {
		t.Fatalf("sharded predict: %+v", pd)
	}

	// Paged inventory: limit=1 pages through the two programs.
	var page struct {
		Programs []programInfo `json:"programs"`
		Total    int           `json:"total"`
		Offset   int           `json:"offset"`
	}
	doJSON(t, s, "GET", "/v1/programs?limit=1", nil, &page)
	if page.Total != 2 || len(page.Programs) != 1 || page.Programs[0].Program != "count" {
		t.Fatalf("page 1: %+v", page)
	}
	doJSON(t, s, "GET", "/v1/programs?limit=1&offset=1", nil, &page)
	if page.Total != 2 || len(page.Programs) != 1 || page.Programs[0].Program != "other" {
		t.Fatalf("page 2: %+v", page)
	}
	doJSON(t, s, "GET", "/v1/programs?offset=99", nil, &page)
	if page.Total != 2 || len(page.Programs) != 0 || page.Offset != 2 {
		t.Fatalf("past-the-end page: %+v", page)
	}
	if code := doJSON(t, s, "GET", "/v1/programs?limit=-1", nil, nil); code != 400 {
		t.Fatalf("negative limit = %d, want 400", code)
	}
	if code := doJSON(t, s, "GET", "/v1/programs?limit=x", nil, nil); code != 400 {
		t.Fatalf("junk limit = %d, want 400", code)
	}

	// Health reports the sharded store.
	var h healthResponse
	doJSON(t, s, "GET", "/healthz", nil, &h)
	if h.Store.Driver != "shard" || len(h.Store.Shards) != 4 || h.Store.Keys != 3 {
		t.Fatalf("healthz store detail: %+v", h.Store)
	}
	for _, sh := range h.Store.Shards {
		if sh.Breaker != "closed" {
			t.Fatalf("healthy shard reports breaker %q", sh.Breaker)
		}
	}

	// Per-shard metrics ride the shared registry.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		"branchprofd_store_keys 3",
		`branchprofd_store_shard_keys{shard="shard-000"}`,
		`branchprofd_store_shard_breaker_open{shard="shard-003"} 0`,
		`branchprofd_store_shard_saves{shard=`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}
