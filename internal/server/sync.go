package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"branchprof/internal/circuit"
	"branchprof/internal/faults"
	"branchprof/internal/store/replstore"
)

// The sync plane is branchprofd's peer-replication machinery: when a
// node is started with peers (Options.Peers / -peers), its profile
// store is wrapped in internal/store/replstore and two internal
// endpoints open up:
//
//	GET  /v1/sync/digest — this node's anti-entropy digest
//	POST /v1/sync/pull   — fetch named components by (key, origin)
//
// A background gossip loop periodically pulls from every peer: fetch
// the peer's digest, diff it against local state, pull the components
// the peer is ahead on, apply the winners, commit the touched keys.
// Sync exchanges bypass admission control (they are cheap reads and
// must keep working while the compute plane is saturated) but carry
// their own guards: a per-peer circuit breaker (reusing
// internal/circuit) so an unreachable peer costs one probe per
// cooldown instead of a timeout per round, a bounded number of
// concurrent peer syncs, jittered intervals so a cluster started in
// unison does not gossip in lockstep, and a cap on refs per pull
// request. Every exchange consults the faults.PeerFetch stage first,
// which is how the cluster soak injects partitions and slow links.
// See docs/SERVER.md and docs/STORE.md.

// maxPullRefs caps the refs in one /v1/sync/pull request; the gossip
// loop chunks larger diffs. Keeps any single sync response bounded.
const maxPullRefs = 512

// digestResponse is the GET /v1/sync/digest body.
type digestResponse struct {
	Self   string           `json:"self"`
	Digest replstore.Digest `json:"digest"`
}

// pullRequest is the POST /v1/sync/pull body.
type pullRequest struct {
	Refs []replstore.Ref `json:"refs"`
}

// pullResponse is its reply.
type pullResponse struct {
	Self       string                `json:"self"`
	Components []replstore.Component `json:"components"`
}

// handleSyncDigest serves this replica's anti-entropy digest.
func (s *Server) handleSyncDigest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, digestResponse{Self: s.repl.Self(), Digest: s.repl.Digest()})
}

// handleSyncPull serves component state to a pulling peer.
func (s *Server) handleSyncPull(w http.ResponseWriter, r *http.Request) {
	var req pullRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Refs) > maxPullRefs {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("at most %d refs per pull", maxPullRefs))
		return
	}
	comps, err := s.repl.Fetch(r.Context(), req.Refs)
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}
	writeJSON(w, http.StatusOK, pullResponse{Self: s.repl.Self(), Components: comps})
}

// syncPeer is the gossip loop's per-peer state.
type syncPeer struct {
	addr string // base URL, e.g. "http://127.0.0.1:7071"
	brk  *circuit.Breaker

	mu      sync.Mutex
	syncs   uint64 // completed sync rounds
	errs    uint64 // failed sync rounds
	pulled  uint64 // components applied from this peer
	skipped uint64 // rounds skipped by the open breaker
	pending int    // components this node holds that the peer lacks (hand-off backlog)
	lastErr string
}

func (p *syncPeer) snapshot() peerHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	return peerHealth{
		Addr:    p.addr,
		Breaker: p.brk.State().String(),
		Syncs:   p.syncs,
		Errors:  p.errs,
		Pulled:  p.pulled,
		Skipped: p.skipped,
		Pending: p.pending,
		LastErr: p.lastErr,
	}
}

// syncer owns the gossip loop.
type syncer struct {
	s        *Server
	rs       *replstore.Store
	peers    []*syncPeer
	client   *http.Client
	interval time.Duration
	timeout  time.Duration
	sem      chan struct{} // bounds concurrent peer syncs

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newSyncer(s *Server, rs *replstore.Store) *syncer {
	sy := &syncer{
		s:        s,
		rs:       rs,
		client:   &http.Client{Timeout: s.opts.SyncTimeout},
		interval: s.opts.SyncInterval,
		timeout:  s.opts.SyncTimeout,
		sem:      make(chan struct{}, s.opts.SyncConcurrency),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, addr := range s.opts.Peers {
		sy.peers = append(sy.peers, &syncPeer{
			addr: strings.TrimRight(addr, "/"),
			brk:  circuit.New(s.opts.BreakerThreshold, s.opts.BreakerCooldown, s.opts.Obs.Now),
		})
	}
	return sy
}

// run is the gossip loop: one bounded-concurrency round per jittered
// interval until shutdown. Started by Listen; tests drive rounds
// directly through Server.SyncNow instead.
func (sy *syncer) run() {
	defer close(sy.done)
	for {
		// ±20% jitter keeps replicas started together from gossiping in
		// lockstep (and their disk writes from aligning).
		jitter := time.Duration(rand.Int63n(int64(sy.interval)/2+1)) - sy.interval/4
		select {
		case <-sy.stop:
			return
		case <-time.After(sy.interval + jitter):
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-sy.stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		sy.round(ctx)
		cancel()
	}
}

// shutdown stops the loop and waits for any in-flight round to finish,
// so the drain-time final save sees replication quiesced.
func (sy *syncer) shutdown() {
	sy.stopOnce.Do(func() { close(sy.stop) })
	<-sy.done
}

// round syncs with every peer, at most cap(sem) concurrently, and
// returns the first error per failing peer joined together.
func (sy *syncer) round(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(sy.peers))
	for i, p := range sy.peers {
		select {
		case sy.sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int, p *syncPeer) {
			defer wg.Done()
			defer func() { <-sy.sem }()
			errs[i] = sy.syncPeer(ctx, p)
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// syncPeer runs one anti-entropy pull from p, through its breaker.
func (sy *syncer) syncPeer(ctx context.Context, p *syncPeer) error {
	if !p.brk.Allow() {
		p.mu.Lock()
		p.skipped++
		p.mu.Unlock()
		sy.s.m.replSkipped(p.addr)
		return nil
	}
	pulled, err := sy.pull(ctx, p)
	p.brk.Record(err)
	p.mu.Lock()
	if err != nil {
		p.errs++
		p.lastErr = err.Error()
		p.mu.Unlock()
		sy.s.m.replSync(p.addr, false)
		return fmt.Errorf("sync %s: %w", p.addr, err)
	}
	p.syncs++
	p.pulled += uint64(pulled)
	p.lastErr = ""
	p.mu.Unlock()
	sy.s.m.replSync(p.addr, true)
	sy.s.m.replPulled(p.addr, pulled)
	return nil
}

// pull fetches p's digest, pulls every component p is ahead on, and
// applies the winners, committing the touched keys like an ingest
// request (journal commit point, then save). It also recomputes
// the hand-off backlog owed to p (components we hold that p lacks —
// p will pull them from us when it can reach us).
func (sy *syncer) pull(ctx context.Context, p *syncPeer) (applied int, err error) {
	ctx, cancel := context.WithTimeout(ctx, sy.timeout)
	defer cancel()
	// The chaos hook: partition/delay rules for this peer fire here,
	// before any network I/O.
	if err := sy.s.opts.Faults.Fire(faults.PeerFetch, p.addr); err != nil {
		return 0, err
	}
	var dig digestResponse
	if err := sy.getJSON(ctx, p.addr+"/v1/sync/digest", &dig); err != nil {
		return 0, err
	}
	if dig.Self == sy.rs.Self() {
		return 0, fmt.Errorf("peer %s reports our own node ID %q (misconfigured -self?)", p.addr, dig.Self)
	}
	p.mu.Lock()
	p.pending = len(sy.rs.Owed(dig.Digest))
	p.mu.Unlock()

	refs := sy.rs.Diff(dig.Digest)
	touched := make(map[string]bool)
	// Commit whatever was applied, also when a later chunk fails.
	defer func() {
		keys := make([]string, 0, len(touched))
		for k := range touched {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sy.s.commit(ctx, keys)
	}()
	for len(refs) > 0 {
		chunk := refs
		if len(chunk) > maxPullRefs {
			chunk = chunk[:maxPullRefs]
		}
		refs = refs[len(chunk):]
		var resp pullResponse
		if err := sy.postJSON(ctx, p.addr+"/v1/sync/pull", pullRequest{Refs: chunk}, &resp); err != nil {
			return applied, err
		}
		for _, c := range resp.Components {
			ok, err := sy.rs.Apply(ctx, c)
			if err != nil {
				return applied, fmt.Errorf("applying %s/%s: %w", c.Key, c.Origin, err)
			}
			if ok {
				applied++
				touched[c.Key] = true
			}
		}
	}
	return applied, nil
}

func (sy *syncer) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return sy.do(req, v)
}

func (sy *syncer) postJSON(ctx context.Context, url string, body, v any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return sy.do(req, v)
}

func (sy *syncer) do(req *http.Request, v any) error {
	resp, err := sy.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	// Digests and component chunks are bounded by maxPullRefs, but a
	// confused peer must not OOM us.
	return json.NewDecoder(http.MaxBytesReader(nil, resp.Body, 64<<20)).Decode(v)
}

// SyncNow runs one full anti-entropy round against every configured
// peer, synchronously, and returns the joined per-peer errors. It is
// the deterministic entry point the cluster soak drives instead of
// waiting on the jittered background loop; calling it on a server with
// no peers is a no-op.
func (s *Server) SyncNow(ctx context.Context) error {
	if s.syncer == nil {
		return nil
	}
	return s.syncer.round(ctx)
}

// Repl returns the replication layer, or nil when the server runs
// standalone.
func (s *Server) Repl() *replstore.Store { return s.repl }

// peerHealth is one peer's entry in /healthz.
type peerHealth struct {
	Addr    string `json:"addr"`
	Breaker string `json:"breaker"`
	Syncs   uint64 `json:"syncs"`
	Errors  uint64 `json:"errors"`
	Pulled  uint64 `json:"pulled"`
	Skipped uint64 `json:"skipped"`
	// Pending is the hand-off backlog: components this node holds that
	// the peer lacked at last contact. Non-zero while a partitioned
	// peer has not yet caught up.
	Pending int    `json:"pending"`
	LastErr string `json:"last_error,omitempty"`
}

// replHealth is the replication block in /healthz.
type replHealth struct {
	Self  string       `json:"self"`
	Peers []peerHealth `json:"peers"`
}

// replHealthz builds the /healthz replication block, nil when
// replication is off.
func (s *Server) replHealthz() *replHealth {
	if s.syncer == nil {
		return nil
	}
	rh := &replHealth{Self: s.repl.Self()}
	for _, p := range s.syncer.peers {
		rh.Peers = append(rh.Peers, p.snapshot())
	}
	return rh
}
