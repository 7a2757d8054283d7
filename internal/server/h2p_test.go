package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mixSrc has one easy branch (the loop, almost always taken) and one
// hard branch (taken on every 'a' in the input), so an H2P ranking has
// a deterministic hardest site to find: with an alternating "abab..."
// input the `if (c == 97)` site flips every execution and must out-
// score the loop back-edge under every scheme.
const mixSrc = `
func main() int {
	var n int = 0;
	var c int = getc();
	while (c >= 0) {
		if (c == 97) {
			n = n + 1;
		}
		c = getc();
	}
	return n;
}
`

func h2pBody(program, dataset, source, input string, n int) map[string]any {
	return map[string]any{
		"program": program, "dataset": dataset, "source": source, "input": input, "n": n,
	}
}

func TestH2PProfilesReport(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})

	// No profiles yet: 404, not an empty report.
	if code := doJSON(t, s, "GET", "/v1/h2p?program=count", nil, nil); code != http.StatusNotFound {
		t.Fatalf("h2p before any profile = %d, want 404", code)
	}
	if code := doJSON(t, s, "GET", "/v1/h2p?program=bad@name", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("h2p with invalid name = %d, want 400", code)
	}

	for _, ds := range []struct{ name, input string }{
		{"mostly-a", "aaab"},
		{"alternating", "abababab"},
	} {
		if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", ds.name, mixSrc, ds.input), nil); code != http.StatusOK {
			t.Fatalf("profile %s = %d", ds.name, code)
		}
	}

	var resp h2pProfileResponse
	if code := doJSON(t, s, "GET", "/v1/h2p?program=count&n=2", nil, &resp); code != http.StatusOK {
		t.Fatalf("h2p = %d", code)
	}
	if resp.Mode != "profiles" || len(resp.Datasets) != 2 || resp.Instrs == 0 {
		t.Fatalf("bad h2p response: %+v", resp)
	}
	if len(resp.Top) == 0 || len(resp.Top) > 2 {
		t.Fatalf("top has %d sites, want 1..2", len(resp.Top))
	}
	prev := resp.Top[0].MPKI
	for _, site := range resp.Top {
		if site.MPKI > prev {
			t.Fatalf("ranking not descending: %+v", resp.Top)
		}
		prev = site.MPKI
		if site.Executed == 0 {
			t.Fatalf("never-executed site ranked: %+v", site)
		}
		if site.TakenRate < 0 || site.TakenRate > 1 || site.Entropy < 0 || site.Entropy > 1.0000001 {
			t.Fatalf("site stats out of range: %+v", site)
		}
	}
}

func TestH2PTracedReport(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})

	// Accumulate a profile first so the static scheme is profile-fed.
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "train", mixSrc, "abab"), nil); code != http.StatusOK {
		t.Fatal("profile failed")
	}

	var resp h2pTracedResponse
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("count", "alternating", mixSrc, "abababababababab", 3), &resp); code != http.StatusOK {
		t.Fatalf("traced h2p = %d", code)
	}
	if resp.Mode != "traced" || resp.Instrs == 0 || resp.Sites == 0 {
		t.Fatalf("bad traced response: %+v", resp)
	}
	if resp.HeuristicOnly || len(resp.TrainedOn) != 1 || resp.TrainedOn[0] != "train" {
		t.Fatalf("static scheme not profile-fed: %+v", resp)
	}
	if len(resp.Top) == 0 || len(resp.Top) > 3 {
		t.Fatalf("top has %d sites, want 1..3", len(resp.Top))
	}
	// Every ranked site carries the full scheme breakdown, with the
	// profile-fed static scheme first, and a finite score.
	for _, site := range resp.Top {
		if len(site.MPKI) != 6 {
			t.Fatalf("site %d has %d schemes, want 6 (static + zoo): %+v", site.Site, len(site.MPKI), site)
		}
		if site.MPKI[0].Scheme != "profile" {
			t.Fatalf("first scheme = %q, want the profile-fed static", site.MPKI[0].Scheme)
		}
		if site.Func == "" {
			t.Fatalf("ranked site missing source identity: %+v", site)
		}
	}
	// The alternating if is structurally the hardest branch here: high
	// entropy, run length 1. It must top the ranking.
	if top := resp.Top[0]; top.Entropy < 0.9 || top.Label != "if" {
		t.Fatalf("hardest branch = %+v, want the alternating if", top)
	}

	// Without any stored profile the static scheme falls back to the
	// heuristic — still a valid report.
	var fresh h2pTracedResponse
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("nameless", "", mixSrc, "ab", 0), &fresh); code != http.StatusOK {
		t.Fatal("heuristic-only traced h2p failed")
	}
	if !fresh.HeuristicOnly || len(fresh.TrainedOn) != 0 {
		t.Fatalf("expected heuristic-only fallback: %+v", fresh)
	}

	// Contract errors stay client errors.
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("count", "x", "func main( {", "", 0), nil); code != http.StatusBadRequest {
		t.Fatal("compile error not 400")
	}
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("bad@name", "x", mixSrc, "", 0), nil); code != http.StatusBadRequest {
		t.Fatal("invalid program name not 400")
	}
	if code := doJSON(t, s, "DELETE", "/v1/h2p", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatal("DELETE not 405")
	}

	// The report metrics are live on the shared registry.
	if v := s.m.h2pLastSites.Load(); v == 0 {
		t.Error("branchprof_h2p_last_sites not set")
	}
	if v := s.m.h2pLastInstrs.Load(); v == 0 {
		t.Error("branchprof_h2p_last_traced_instrs not set")
	}
}

// variantSrc is mixSrc with one more branch: a second compilation of
// the same program name, whose stored profiles cannot merge with (or
// feed a prediction for) mixSrc's.
const variantSrc = `
func main() int {
	var n int = 0;
	var c int = getc();
	while (c >= 0) {
		if (c == 97) {
			n = n + 1;
		}
		if (c == 98) {
			n = n + 2;
		}
		c = getc();
	}
	return n;
}
`

// TestH2PGolden pins the exact /v1/h2p response bodies, status line
// included, for the traced POST (profile-fed, heuristic-only, capped
// by n, fuel-exhausted, with a mismatched stored compilation filtered
// out) and the profile-only GET (with a skipped dataset). The bodies
// in testdata/h2p are the server's own output; any byte that moves is
// a change to the endpoint's contract.
func TestH2PGolden(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})
	profile := func(program, dataset, source, input string) {
		t.Helper()
		if code := doJSON(t, s, "POST", "/v1/profile", profileBody(program, dataset, source, input), nil); code != http.StatusOK {
			t.Fatalf("profile %s@%s = %d", program, dataset, code)
		}
	}
	traced := func(program, dataset, input string, n int, fuel uint64) any {
		b := h2pBody(program, dataset, mixSrc, input, n)
		if fuel > 0 {
			b["fuel"] = fuel
		}
		return b
	}
	check := func(name, method, path string, body any) {
		t.Helper()
		code, got := doRaw(t, s, method, path, body)
		got = append([]byte(fmt.Sprintf("%d\n", code)), got...)
		file := filepath.Join("testdata", "h2p", name+".txt")
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v; the response was:\n%s", name, err, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s (%s) response moved:\n got: %s\nwant: %s", method, path, name, got, want)
		}
	}

	profile("count", "train", mixSrc, "abab")
	check("post_trained", "POST", "/v1/h2p", traced("count", "alternating", "abababababababab", 0, 0))
	check("post_trained_n1", "POST", "/v1/h2p", traced("count", "alternating", "abababababababab", 1, 0))
	check("post_heuristic", "POST", "/v1/h2p", traced("nameless", "", "ab", 0, 0))
	// A fuel-exhausted traced run is the program's trap, 422, although
	// the engine's RunContext returns the VM's error without a stage
	// wrapper.
	check("post_fuel", "POST", "/v1/h2p", traced("count", "long", strings.Repeat("ab", 64), 0, 50))

	profile("count", "mostly-a", mixSrc, "aaab")
	profile("count", "alternating", mixSrc, "abababab")
	profile("count", "variant", variantSrc, "abba")
	check("post_filtered", "POST", "/v1/h2p", traced("count", "mixed", "aabbab", 2, 0))
	check("get_skipped_n2", "GET", "/v1/h2p?program=count&n=2", nil)
}

// doRaw sends body (JSON-encoded when non-nil) to path on the
// server's handler and returns the status code and the raw reply.
func doRaw(t *testing.T, s *Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
	return rec.Code, rec.Body.Bytes()
}

// engineGauge reads one of the engine's gauges from its Prometheus
// export.
func engineGauge(t *testing.T, s *Server, name string) string {
	t.Helper()
	var prom strings.Builder
	if err := s.eng.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("Prometheus export lacks %s", name)
	return ""
}

// TestH2PTracedCached: a repeat traced POST /v1/h2p is served from the
// engine's derived entries with the same bytes and no run; a stored
// profile that leaves every predicted direction alone keeps it cached,
// one that flips a direction makes the next request trace again.
func TestH2PTracedCached(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})
	profile := func(dataset, input string) {
		t.Helper()
		if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", dataset, mixSrc, input), nil); code != http.StatusOK {
			t.Fatalf("profile %s = %d", dataset, code)
		}
	}
	body := h2pBody("count", "alternating", mixSrc, "abababababababab", 0)
	// post sends body and reports the reply with how many engine runs
	// and replay hits it cost.
	post := func() (reply []byte, runs, hits uint64) {
		t.Helper()
		before := s.eng.Stats()
		code, got := doRaw(t, s, "POST", "/v1/h2p", body)
		if code != http.StatusOK {
			t.Fatalf("traced h2p = %d: %s", code, got)
		}
		after := s.eng.Stats()
		return got, after.Runs - before.Runs, after.ReplayHits - before.ReplayHits
	}

	profile("rare-a", "bbbbbbbbbbbbbba")
	first, runs, hits := post()
	if runs != 1 || hits != 0 {
		t.Fatalf("first request: %d runs, %d replay hits; want one traced run", runs, hits)
	}
	hitsGauge := engineGauge(t, s, "branchprof_engine_replay_hits")
	second, runs, hits := post()
	if !bytes.Equal(second, first) {
		t.Fatalf("repeat request answered\n%s\nfirst answer\n%s", second, first)
	}
	if runs != 0 || hits != 1 {
		t.Fatalf("repeat request: %d runs, %d replay hits; want 0 and 1", runs, hits)
	}
	if got := engineGauge(t, s, "branchprof_engine_replay_hits"); got == hitsGauge {
		t.Fatalf("branchprof_engine_replay_hits stayed at %s", got)
	}

	// Another dataset with the same majority directions changes the
	// stored profiles (and trained_on) but not the table: still cached.
	profile("rarer-a", "bbbbbbbbbbbbbbbbbbbbbba")
	if reply, runs, hits := post(); runs != 0 || hits != 1 {
		t.Fatalf("after a direction-preserving profile: %d runs, %d replay hits; want a hit", runs, hits)
	} else if bytes.Equal(reply, first) {
		t.Fatal("trained_on did not grow with the new dataset")
	}

	// Two datasets where the if is mostly taken outvote the two where
	// it is rare: its predicted direction flips, and so does the key.
	profile("mostly-a", "aaaaaaaaaaaaaab")
	profile("all-a", "aaaaaaaaaaaaaaaaaaaa")
	if _, runs, hits := post(); runs != 1 || hits != 0 {
		t.Fatalf("after a direction-flipping profile: %d runs, %d replay hits; want a traced miss", runs, hits)
	}
	if _, runs, hits := post(); runs != 0 || hits != 1 {
		t.Fatalf("repeat after the flip: %d runs, %d replay hits; want a hit", runs, hits)
	}
}

// TestH2PTracedFuel: a fuel-exhausted traced run answers 422 and
// stores nothing, so repeating it traces again; a different fuel is a
// different entry, and a retry with enough fuel traces once and then
// hits.
func TestH2PTracedFuel(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})
	input := strings.Repeat("ab", 64)
	post := func(fuel uint64) (code int, runs, hits uint64) {
		t.Helper()
		b := h2pBody("count", "long", mixSrc, input, 0)
		b["fuel"] = fuel
		before := s.eng.Stats()
		code, _ = doRaw(t, s, "POST", "/v1/h2p", b)
		after := s.eng.Stats()
		return code, after.Runs - before.Runs, after.ReplayHits - before.ReplayHits
	}
	for i := 0; i < 2; i++ {
		if code, runs, hits := post(50); code != http.StatusUnprocessableEntity || runs != 1 || hits != 0 {
			t.Fatalf("fuel-exhausted request %d: status %d, %d runs, %d hits; want 422 with a fresh run", i, code, runs, hits)
		}
	}
	if st := s.eng.Stats(); st.ReplayHits != 0 {
		t.Fatalf("a fuel-exhausted run left a derived entry: %d replay hits", st.ReplayHits)
	}
	for _, fuel := range []uint64{1 << 20, 1 << 21} {
		if code, runs, hits := post(fuel); code != http.StatusOK || runs != 1 || hits != 0 {
			t.Fatalf("fuel %d, first request: status %d, %d runs, %d hits; want a traced 200", fuel, code, runs, hits)
		}
		if code, runs, hits := post(fuel); code != http.StatusOK || runs != 0 || hits != 1 {
			t.Fatalf("fuel %d, repeat: status %d, %d runs, %d hits; want a cached 200", fuel, code, runs, hits)
		}
	}
}
