package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/faults"
)

// switchHandler lets a cluster test allocate listener URLs before the
// servers that answer on them exist — the peer-list chicken-and-egg:
// every node needs every other node's URL at construction time.
type switchHandler struct{ h atomic.Value } // holds handlerBox

type handlerBox struct{ h http.Handler }

func (sw *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if box, ok := sw.h.Load().(handlerBox); ok && box.h != nil {
		box.h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "node down", http.StatusServiceUnavailable)
}

func (sw *switchHandler) set(h http.Handler) {
	sw.h.Store(handlerBox{h: h})
}

// clusterNode is one replica in the in-process cluster harness.
type clusterNode struct {
	name string
	url  string
	hs   *httptest.Server
	sw   *switchHandler
	opts Options

	// mu serializes liveness transitions against in-flight client
	// posts: workers hold RLock for the duration of a request, kill
	// and restart take Lock — so a node never dies mid-accepted-post
	// and the test's accepted-ingest ledger stays exact.
	mu    sync.RWMutex
	srv   *Server
	alive bool
}

// cluster is N branchprofd replicas wired into a full mesh over real
// loopback HTTP, with manual (deterministic) sync rounds.
type cluster struct {
	t     *testing.T
	nodes []*clusterNode
}

// newCluster builds an n-node full mesh. customize (optional) edits
// each node's Options before construction, with every node's URL in
// hand — the hook for per-node fault sets (labeled by peer URL) and
// on-disk stores.
func newCluster(t *testing.T, n int, customize func(i int, urls []string, o *Options)) *cluster {
	t.Helper()
	c := &cluster{t: t}
	var urls []string
	for i := 0; i < n; i++ {
		sw := &switchHandler{}
		hs := httptest.NewServer(sw)
		t.Cleanup(hs.Close)
		c.nodes = append(c.nodes, &clusterNode{
			name: fmt.Sprintf("node%d", i+1),
			url:  hs.URL,
			hs:   hs,
			sw:   sw,
		})
		urls = append(urls, hs.URL)
	}
	for i, node := range c.nodes {
		var peers []string
		for j, other := range c.nodes {
			if j != i {
				peers = append(peers, other.url)
			}
		}
		opts := Options{
			Concurrency:  2,
			SelfID:       node.name,
			Peers:        peers,
			SyncInterval: time.Hour, // tests drive SyncNow themselves
			SyncTimeout:  10 * time.Second,
			// Short cooldown so a restarted peer is re-probed within a
			// bounded convergence loop instead of the production 5s.
			BreakerCooldown: 50 * time.Millisecond,
		}
		if customize != nil {
			customize(i, urls, &opts)
		}
		node.opts = opts
		node.srv = newTestServer(t, opts)
		node.alive = true
		node.sw.set(node.srv.Handler())
	}
	return c
}

// post sends a JSON request to node i's live handler, holding the
// liveness read-lock for the duration. Returns -1 when the node is
// down (the routed client's "connection refused").
func (c *cluster) post(i int, method, path string, body, out any) int {
	node := c.nodes[i]
	node.mu.RLock()
	defer node.mu.RUnlock()
	if !node.alive {
		return -1
	}
	return doJSON(c.t, node.srv, method, path, body, out)
}

// streamIngest posts n copies of body as one NDJSON request to node
// i's /v1/profile/stream, holding the liveness read-lock like post.
// It returns how many lines were acknowledged with a 200 entry plus
// the HTTP status (-1 when the node is down). A crash mid-stream
// truncates the response; only well-formed 200 entries count as
// acknowledged, exactly what a careful client would retry on.
func (c *cluster) streamIngest(i, n int, body map[string]any) (int, int) {
	node := c.nodes[i]
	node.mu.RLock()
	defer node.mu.RUnlock()
	if !node.alive {
		return 0, -1
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for k := 0; k < n; k++ {
		if err := enc.Encode(body); err != nil {
			c.t.Errorf("encoding stream line: %v", err)
			return 0, -1
		}
	}
	req := httptest.NewRequest("POST", "/v1/profile/stream", &buf)
	rec := httptest.NewRecorder()
	node.srv.Handler().ServeHTTP(rec, req)
	acked := 0
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e struct {
			Done   bool `json:"done"`
			Status int  `json:"status"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			break // garbled tail after a mid-emit crash
		}
		if e.Done {
			break
		}
		if e.Status == http.StatusOK {
			acked++
		}
	}
	return acked, rec.Code
}

// kill abruptly stops node i: no drain, no final sync — the crash the
// soak recovers from. The store is closed so a restart can re-acquire
// its shard locks (in production the process exit releases them).
func (c *cluster) kill(i int) {
	node := c.nodes[i]
	node.mu.Lock()
	defer node.mu.Unlock()
	node.alive = false
	node.sw.set(nil)
	node.srv.Close()
	if err := node.srv.Store().Close(context.Background()); err != nil {
		c.t.Errorf("closing %s store: %v", node.name, err)
	}
}

// restart brings a killed node back from its persisted store.
func (c *cluster) restart(i int) {
	node := c.nodes[i]
	node.mu.Lock()
	defer node.mu.Unlock()
	node.srv = newTestServer(c.t, node.opts)
	node.alive = true
	node.sw.set(node.srv.Handler())
}

// syncAll runs one manual anti-entropy round on every live node.
func (c *cluster) syncAll(ctx context.Context) {
	for i, node := range c.nodes {
		node.mu.RLock()
		alive := node.alive
		node.mu.RUnlock()
		if !alive {
			continue
		}
		if err := c.nodes[i].srv.SyncNow(ctx); err != nil {
			c.t.Logf("sync %s: %v", node.name, err)
		}
	}
}

// digestJSON renders node i's replication digest canonically.
func (c *cluster) digestJSON(i int) string {
	data, err := json.Marshal(c.nodes[i].srv.Repl().Digest())
	if err != nil {
		c.t.Fatal(err)
	}
	return string(data)
}

// snapshotJSON renders node i's full logical store canonically —
// map keys sort under encoding/json, so equal strings mean
// bit-identical served state.
func (c *cluster) snapshotJSON(i int) string {
	snap, err := c.nodes[i].srv.Store().Snapshot(context.Background())
	if err != nil {
		c.t.Fatalf("snapshot %s: %v", c.nodes[i].name, err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		c.t.Fatal(err)
	}
	return string(data)
}

// converge syncs until every live node reports the same digest, up to
// maxRounds; it fails the test if the cluster does not converge.
// Rounds are spaced past the harness breaker cooldown so a tripped
// peer breaker gets its half-open probe within the budget.
func (c *cluster) converge(ctx context.Context, maxRounds int) {
	c.t.Helper()
	for r := 0; r < maxRounds; r++ {
		c.syncAll(ctx)
		base, same := "", true
		for i, node := range c.nodes {
			node.mu.RLock()
			alive := node.alive
			node.mu.RUnlock()
			if !alive {
				continue
			}
			d := c.digestJSON(i)
			if base == "" {
				base = d
			} else if d != base {
				same = false
				break
			}
		}
		if same {
			return
		}
		time.Sleep(60 * time.Millisecond)
	}
	c.t.Fatalf("cluster did not converge within %d rounds", maxRounds)
}

func TestSyncEndpointsAbsentOnStandaloneNode(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 1})
	if code := doJSON(t, s, "GET", "/v1/sync/digest", nil, nil); code != http.StatusNotFound {
		t.Errorf("standalone /v1/sync/digest = %d, want 404", code)
	}
	var hr healthResponse
	doJSON(t, s, "GET", "/healthz", nil, &hr)
	if hr.Repl != nil {
		t.Errorf("standalone healthz carries repl block: %+v", hr.Repl)
	}
}

func TestPeersRequireSelfID(t *testing.T) {
	if _, _, err := New(Options{Peers: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Fatal("New accepted Peers without SelfID")
	}
}

func TestSyncEndpointContracts(t *testing.T) {
	c := newCluster(t, 2, nil)

	var dig digestResponse
	if code := c.post(0, "GET", "/v1/sync/digest", nil, &dig); code != http.StatusOK {
		t.Fatalf("digest = %d", code)
	}
	if dig.Self != "node1" {
		t.Errorf("digest self = %q, want node1", dig.Self)
	}
	if code := c.post(0, "POST", "/v1/sync/digest", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST digest = %d, want 405", code)
	}
	if code := c.post(0, "GET", "/v1/sync/pull", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET pull = %d, want 405", code)
	}
	refs := make([]map[string]string, maxPullRefs+1)
	for i := range refs {
		refs[i] = map[string]string{"key": fmt.Sprintf("k%d@d", i), "origin": "node2"}
	}
	if code := c.post(0, "POST", "/v1/sync/pull", map[string]any{"refs": refs}, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized pull = %d, want 413", code)
	}
	if code := c.post(0, "POST", "/v1/sync/pull", map[string]any{"refs": []any{}}, nil); code != http.StatusOK {
		t.Errorf("empty pull = %d, want 200", code)
	}
}

// TestSyncTwoNodeConvergence is the basic replication contract: ingest
// on one node, sync, serve from the other — including predictions
// trained on profiles the serving node never ingested.
func TestSyncTwoNodeConvergence(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 2, nil)

	if code := c.post(0, "POST", "/v1/profile", profileBody("count", "mostly-a", countSrc, "aaab"), nil); code != http.StatusOK {
		t.Fatalf("ingest node1 = %d", code)
	}
	if code := c.post(1, "POST", "/v1/profile", profileBody("count", "no-a", countSrc, "bbbb"), nil); code != http.StatusOK {
		t.Fatalf("ingest node2 = %d", code)
	}
	c.converge(ctx, 4)
	if a, b := c.snapshotJSON(0), c.snapshotJSON(1); a != b {
		t.Fatalf("snapshots diverge:\n%s\nvs\n%s", a, b)
	}

	// node2 predicts for the dataset only node1 ever saw.
	var pr predictResponse
	if code := c.post(1, "POST", "/v1/predict", map[string]any{
		"program": "count", "source": countSrc, "target_dataset": "no-a",
	}, &pr); code != http.StatusOK {
		t.Fatalf("predict on node2 = %d", code)
	}
	if pr.HeuristicOnly {
		t.Fatal("node2 predicted heuristically; replicated profile not used")
	}
	if len(pr.TrainedOn) != 1 || pr.TrainedOn[0] != "mostly-a" {
		t.Fatalf("TrainedOn = %v, want [mostly-a] (replicated from node1)", pr.TrainedOn)
	}
	if pr.Eval == nil {
		t.Fatal("no eval against the held-out replicated target")
	}

	// Ingesting the same key on BOTH nodes and re-syncing must not
	// double-count: each node's contribution is its own component.
	for i := 0; i < 2; i++ {
		if code := c.post(i, "POST", "/v1/profile", profileBody("count", "shared", countSrc, "aa"), nil); code != http.StatusOK {
			t.Fatalf("shared ingest node%d = %d", i+1, code)
		}
	}
	c.converge(ctx, 4)
	c.converge(ctx, 4) // converged resync must change nothing
	// Reference: the branch counts of exactly one run of "aa".
	one, err := engine.New(engine.Options{}).Execute(engine.Spec{
		Name: "count", Source: countSrc, Dataset: "probe", Input: []byte("aa"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		acc, err := c.nodes[i].srv.Store().Get(ctx, "count@shared")
		if err != nil || acc == nil {
			t.Fatalf("node%d count@shared: %v %v", i+1, acc, err)
		}
		if want := 2 * one.Prof.TakenCount(); acc.TakenCount() != want {
			t.Errorf("node%d count@shared taken = %d, want %d (exactly two ingests, no double-count)",
				i+1, acc.TakenCount(), want)
		}
	}
	if a, b := c.snapshotJSON(0), c.snapshotJSON(1); a != b {
		t.Fatalf("snapshots diverge after shared-key sync:\n%s\nvs\n%s", a, b)
	}
}

// TestSyncPullCommitsJournal: a sync pull that applies something ends
// at the same commit as an ingest request. Under fsync=batch that
// commit is the journal fsync, so the pulled records are synced and
// saved before the round returns.
func TestSyncPullCommitsJournal(t *testing.T) {
	dir := t.TempDir()
	c := newCluster(t, 2, func(i int, _ []string, o *Options) {
		if i == 1 {
			o.DBPath = filepath.Join(dir, "n2.d")
			o.Shards = 2
			o.WALDir = filepath.Join(dir, "n2.wal")
			o.WALFsync = "batch"
		}
	})
	if code := c.post(0, "POST", "/v1/profile", profileBody("count", "far", countSrc, "aab"), nil); code != http.StatusOK {
		t.Fatalf("ingest node1 = %d", code)
	}
	if err := c.nodes[1].srv.SyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	ws := c.nodes[1].srv.wal.WALStats()
	if ws.Appends == 0 {
		t.Fatal("the pull journaled nothing")
	}
	if ws.Syncs == 0 {
		t.Error("the pull's records were not fsynced under fsync=batch")
	}
	if ws.Pending != 0 {
		t.Errorf("%d pulled records still pending: the pull did not save", ws.Pending)
	}
}

// TestSyncPeerBreakerOpensOnDeadPeer verifies an unreachable peer
// trips its circuit breaker (visible in /healthz) instead of costing a
// timeout every round, and that sync with the live peer keeps working.
func TestSyncPeerBreakerOpensOnDeadPeer(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 3, nil)
	c.kill(2)

	if code := c.post(0, "POST", "/v1/profile", profileBody("count", "d1", countSrc, "ab"), nil); code != http.StatusOK {
		t.Fatalf("ingest = %d", code)
	}
	// Default breaker threshold is 3 consecutive failures.
	for i := 0; i < 4; i++ {
		c.nodes[0].srv.SyncNow(ctx) //nolint:errcheck // dead-peer errors expected
	}
	var hr healthResponse
	if code := c.post(0, "GET", "/healthz", nil, &hr); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if hr.Repl == nil || hr.Repl.Self != "node1" || len(hr.Repl.Peers) != 2 {
		t.Fatalf("healthz repl block = %+v", hr.Repl)
	}
	var dead, live *peerHealth
	for i := range hr.Repl.Peers {
		switch hr.Repl.Peers[i].Addr {
		case c.nodes[2].url:
			dead = &hr.Repl.Peers[i]
		case c.nodes[1].url:
			live = &hr.Repl.Peers[i]
		}
	}
	if dead == nil || live == nil {
		t.Fatalf("peers in healthz: %+v", hr.Repl.Peers)
	}
	if dead.Breaker == "closed" || dead.Errors == 0 {
		t.Errorf("dead peer health = %+v, want open breaker and errors", dead)
	}
	if dead.LastErr == "" {
		t.Error("dead peer has no last_error")
	}
	if live.Breaker != "closed" || live.Errors != 0 || live.Syncs == 0 {
		t.Errorf("live peer health = %+v, want closed breaker and successful syncs", live)
	}
	// node2 still replicated node1's ingest despite node3 being dead.
	if err := c.nodes[1].srv.SyncNow(ctx); err != nil {
		t.Logf("node2 sync: %v", err)
	}
	if p, err := c.nodes[1].srv.Store().Get(ctx, "count@d1"); err != nil || p == nil {
		t.Fatalf("node2 count@d1 after sync: %v %v", p, err)
	}
}

// TestSyncPartitionTracksPending verifies the hinted-handoff-style
// accounting: while a peer is partitioned away, the data it is missing
// shows up as a pending backlog in /healthz, and drains to zero after
// the partition heals.
func TestSyncPartitionTracksPending(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 2, func(i int, urls []string, o *Options) {
		// Keep the per-peer breaker out of the picture (it has its own
		// test): this test is about the pending-backlog accounting.
		o.BreakerThreshold = 100
		if i == 0 {
			// node1 cannot reach node2 for its first 3 exchanges; the
			// partition heals deterministically after that.
			o.Faults = faults.NewSet(1, faults.Rule{
				Stage: faults.PeerFetch, Kind: faults.Error, Label: urls[1], Through: 3,
			})
		}
	})

	if code := c.post(0, "POST", "/v1/profile", profileBody("count", "d1", countSrc, "aaaa"), nil); code != http.StatusOK {
		t.Fatalf("ingest = %d", code)
	}
	// Partitioned rounds: node1's pulls fail. node2 is not synced
	// during the window (an asymmetric partition), so node1's data
	// stays a real backlog owed to node2.
	for i := 0; i < 3; i++ {
		c.nodes[0].srv.SyncNow(ctx) //nolint:errcheck // partitioned
	}
	var hr healthResponse
	c.post(0, "GET", "/healthz", nil, &hr)
	if hr.Repl == nil || len(hr.Repl.Peers) != 1 {
		t.Fatalf("repl block = %+v", hr.Repl)
	}
	if hr.Repl.Peers[0].Errors != 3 {
		t.Errorf("errors during partition = %d, want 3", hr.Repl.Peers[0].Errors)
	}

	// Healed: the next sync succeeds and computes the backlog owed to
	// node2 (node2 still lacks node1's component until IT pulls).
	if err := c.nodes[0].srv.SyncNow(ctx); err != nil {
		t.Fatalf("post-heal sync: %v", err)
	}
	c.post(0, "GET", "/healthz", nil, &hr)
	if hr.Repl.Peers[0].Pending == 0 {
		t.Error("pending backlog = 0 during peer lag, want > 0")
	}
	// node2 catches up; node1's next round sees the backlog drained.
	if err := c.nodes[1].srv.SyncNow(ctx); err != nil {
		t.Fatalf("node2 sync: %v", err)
	}
	if err := c.nodes[0].srv.SyncNow(ctx); err != nil {
		t.Fatalf("node1 resync: %v", err)
	}
	c.post(0, "GET", "/healthz", nil, &hr)
	if hr.Repl.Peers[0].Pending != 0 {
		t.Errorf("pending backlog after heal = %d, want 0", hr.Repl.Peers[0].Pending)
	}
	if a, b := c.snapshotJSON(0), c.snapshotJSON(1); a != b {
		t.Fatalf("snapshots diverge after heal:\n%s\nvs\n%s", a, b)
	}
}

// TestSyncLoopLifecycle exercises the background gossip loop end to
// end: Listen starts it, rounds fire on the jittered interval against
// a real peer, and Drain stops it cleanly before the final save.
func TestSyncLoopLifecycle(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 2, nil)
	if code := c.post(1, "POST", "/v1/profile", profileBody("count", "dl", countSrc, "ab"), nil); code != http.StatusOK {
		t.Fatalf("ingest = %d", code)
	}

	// A third server (not in the harness) whose peer is node2 and whose
	// loop runs for real on a short interval.
	s := newTestServer(t, Options{
		Concurrency:  1,
		SelfID:       "looper",
		Peers:        []string{c.nodes[1].url},
		SyncInterval: 10 * time.Millisecond,
		SyncTimeout:  5 * time.Second,
	})
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if p, _ := s.Store().Get(ctx, "count@dl"); p != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never replicated count@dl")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain with gossip loop running: %v", err)
	}
}

// TestSoakClusterConvergence is the robustness soak: a three-node
// cluster — every node journaling to a write-ahead log — under
// concurrent multi-node ingest, with node3 crash-killed by a Crash
// failpoint mid-stream-ingest and a network partition between the two
// survivors that heals mid-run. node3's shard saves fail throughout,
// so every line it acknowledges survives ONLY in its journal; its
// restart must replay exactly the acknowledged records. Healthy nodes
// must answer reads with no 5xx throughout; after the dead node
// restarts (journal replay) and bounded anti-entropy rounds run, all
// three nodes must hold bit-identical profile snapshots whose
// counters account for every accepted ingest exactly once. Run under
// -race by `make soak-cluster`.
func TestSoakClusterConvergence(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// PeerFetch consultations (all peers of node1 combined) before
	// node1's partition toward node2 heals. The Through window counts
	// stage consultations, so healthy node3 exchanges spend it too —
	// large enough to keep the partition up across many sync rounds.
	const partitionWindow = 60
	// node3 "dies" (Crash failpoint) at its crashAppend-th journal
	// append. Its appends come only from its own stream ingest — it
	// never gossip-pulls before the restart — so the count is exact:
	// the crash lands mid-stream, with at least one worker's request
	// in flight.
	const crashAppend = 23

	var node3Faults *faults.Set
	c := newCluster(t, 3, func(i int, urls []string, o *Options) {
		o.DBPath = filepath.Join(dir, fmt.Sprintf("node%d-db", i+1))
		o.Shards = 4
		o.WALDir = filepath.Join(dir, fmt.Sprintf("node%d-wal", i+1))
		o.WALFsync = "record"
		switch i {
		case 0:
			// Asymmetric partition: node1 cannot pull from node2 until
			// the window is spent; node2 pulls from node1 freely. The
			// nastier case for convergence — state flows one way only.
			o.Faults = faults.NewSet(7, faults.Rule{
				Stage: faults.PeerFetch, Kind: faults.Error, Label: urls[1], Through: partitionWindow,
			})
		case 2:
			// node3's shard saves never succeed (the manifest, not
			// labeled "shard-", still lands), so acked ingest lives
			// only in its journal — and the node is crash-killed
			// mid-stream. The same set survives the restart: Nth has
			// passed, the dead saves persist, and replay alone must
			// carry the data.
			node3Faults = faults.NewSet(17,
				faults.Rule{Stage: faults.JournalAppend, Kind: faults.Crash, Nth: crashAppend},
				faults.Rule{Stage: faults.DBSave, Kind: faults.Error, Label: "shard-"},
			)
			o.Faults = node3Faults
		}
	})

	var (
		accepted [3]atomic.Uint64 // 200-accepted ingests per node
		bad      sync.Map         // status → count, for non-2xx on healthy nodes
		wg       sync.WaitGroup
		stopSync = make(chan struct{})
	)

	// Continuous background anti-entropy on the two surviving nodes,
	// racing the ingest workers — the -race soak surface. node3 does
	// not pull before its restart: its journal-append counter must
	// stay an exact ledger of its own ingest so the crash failpoint
	// fires deterministically (replicated puts would also append).
	// It still serves its peers' pulls throughout.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stopSync:
					return
				default:
				}
				node := c.nodes[i]
				node.mu.RLock()
				alive := node.alive
				srv := node.srv
				node.mu.RUnlock()
				if alive {
					srv.SyncNow(ctx) //nolint:errcheck // partition errors expected
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	// Ingest workers: two per node. node1 and node2 post single
	// requests; node3's ingest arrives as NDJSON streams — the path
	// whose per-line acks outrun the driver's save window, so the
	// journal is all that protects them when the node dies.
	const perWorker = 20
	var ingest sync.WaitGroup
	for i := 0; i < 2; i++ {
		for w := 0; w < 2; w++ {
			ingest.Add(1)
			go func(i int) {
				defer ingest.Done()
				ds := fmt.Sprintf("ds%d", i+1)
				for k := 0; k < perWorker; k++ {
					code := c.post(i, "POST", "/v1/profile", profileBody("count", ds, countSrc, "aaab"), nil)
					switch {
					case code == http.StatusOK:
						accepted[i].Add(1)
					case code == -1 || code == http.StatusServiceUnavailable:
						// Node killed under us (routed clients fail over).
						return
					case code >= 500:
						v, _ := bad.LoadOrStore(code, new(atomic.Uint64))
						v.(*atomic.Uint64).Add(1)
					case code == http.StatusTooManyRequests:
						// Overloaded: back off and retry the same slot.
						k--
					}
				}
			}(i)
		}
	}
	for w := 0; w < 2; w++ {
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for {
				n, code := c.streamIngest(2, perWorker, profileBody("count", "ds3", countSrc, "aaab"))
				accepted[2].Add(uint64(n))
				if code == http.StatusTooManyRequests && n == 0 {
					continue // shed before streaming began: retry
				}
				// Done, truncated by the crash, or the node is dead —
				// either way acked lines are journaled and counted.
				return
			}
		}()
	}

	// Kill node3 the moment its crash failpoint fires — mid-stream,
	// no drain, no save. kill waits for in-flight requests (liveness
	// write-lock), so lines acked after the crash are still journaled
	// and still owed exactly once.
	deadline := time.Now().Add(10 * time.Second)
	for node3Faults.Fired(faults.JournalAppend) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("node3 crash failpoint never fired (journal appends: %d)",
				node3Faults.Calls(faults.JournalAppend))
		}
		time.Sleep(time.Millisecond)
	}
	c.kill(2)

	// Reads on the healthy nodes must keep working through the
	// partition and the dead peer.
	for i := 0; i < 2; i++ {
		var pr predictResponse
		if code := c.post(i, "POST", "/v1/predict", map[string]any{
			"program": "count", "source": countSrc,
		}, &pr); code != http.StatusOK {
			t.Errorf("predict on node%d during chaos = %d, want 200", i+1, code)
		}
		if code := c.post(i, "GET", "/healthz", nil, nil); code != http.StatusOK {
			t.Errorf("healthz on node%d during chaos = %d", i+1, code)
		}
	}

	ingest.Wait()
	close(stopSync)
	wg.Wait()

	bad.Range(func(k, v any) bool {
		t.Errorf("healthy nodes returned %d × status %v during soak", v.(*atomic.Uint64).Load(), k)
		return true
	})

	// Drive node1 past its partition window so it heals (Through
	// counts consultations — two per round here, one per peer; the
	// background rounds already spent some, these are idempotent
	// extras).
	for i := 0; i < partitionWindow; i++ {
		c.nodes[0].srv.SyncNow(ctx) //nolint:errcheck // partitioned rounds error
	}

	// The dead node returns: its shards hold nothing (saves always
	// failed), so recovery is pure journal replay — one record per
	// acknowledged stream line, nothing skipped, nothing doubled.
	c.restart(2)
	var hr healthResponse
	if code := c.post(2, "GET", "/healthz", nil, &hr); code != http.StatusOK {
		t.Fatalf("healthz on restarted node3 = %d", code)
	}
	if hr.WAL == nil {
		t.Fatal("restarted node3 reports no wal block in /healthz")
	} else if got, want := hr.WAL.Replayed, accepted[2].Load(); got != want {
		t.Errorf("node3 replayed %d journal records, want %d (one per acked stream line)", got, want)
	}

	// Bounded anti-entropy rounds must now converge the whole cluster.
	c.converge(ctx, 20)

	snaps := []string{c.snapshotJSON(0), c.snapshotJSON(1), c.snapshotJSON(2)}
	if snaps[0] != snaps[1] || snaps[1] != snaps[2] {
		t.Fatalf("snapshots diverge after heal+restart:\nnode1 %s\nnode2 %s\nnode3 %s",
			snaps[0], snaps[1], snaps[2])
	}

	// Exactly-once accounting: every accepted ingest of "aaab" runs
	// countSrc once, so each key's counters are accepted × one run.
	one, err := c.nodes[0].srv.Engine().ExecuteContext(ctx, c.nodes[0].srv.specFor(&profileRequest{
		Program: "count", Source: countSrc, Dataset: "probe", Input: "aaab",
	}))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("count@ds%d", i+1)
		want := accepted[i].Load()
		p, err := c.nodes[0].srv.Store().Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if want == 0 {
			if p != nil {
				t.Errorf("%s exists with no accepted ingests", key)
			}
			continue
		}
		if p == nil {
			t.Errorf("%s missing (%d accepted ingests)", key, want)
			continue
		}
		if p.Executed() != want*one.Prof.Executed() {
			t.Errorf("%s executed = %d, want %d accepted × %d (lost or double-counted ingests)",
				key, p.Executed(), want, one.Prof.Executed())
		}
		if p.Instrs != want*one.Prof.Instrs {
			t.Errorf("%s instrs = %d, want %d × %d", key, p.Instrs, want, one.Prof.Instrs)
		}
	}
}
