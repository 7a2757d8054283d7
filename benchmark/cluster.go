package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"
	"unicode/utf8"

	"branchprof/internal/obs"
	"branchprof/internal/route"
	"branchprof/internal/workloads"
)

// serve-cluster: three nodes in a full mesh, gossiping every 500ms,
// each journaling with fsync=batch. The workload ingests the 15 paper
// programs under user names ("u-li", …), so no generated body matches
// and the interpreter serves them, as it serves any user's program.
// Setup preloads every key at its home node, so window ingest hits the
// engine cache and the store, the journal and replication do the
// ingest work; predict and traced /v1/h2p keep the interpreter, the
// dynamic predictors and the predict layer busier than any other
// workload does.
const gossipEvery = 500 * time.Millisecond

// overFuel lists the datasets whose runs exceed branchprofd's default
// instruction budget (1<<26); the server would answer them with 422.
var overFuel = map[string]bool{"spice2g6/greybig": true, "li/9queens": true}

// clusterMix is one cycle of the request mix besides its traced h2p
// requests, one per program (14): 40% single, 10% batch of 8, 35%
// predict and 15% h2p.
var clusterMix = map[string]int{"single": 37, "batch": 9, "predict": 33}

const clusterBatch = 8

type clusterKey struct {
	req  profileReq
	home string // home node name
	body []byte // single-ingest body
}

type clusterProg struct {
	name, source string
	keys         []*clusterKey
	h2p          request // traced run of the program's first dataset
}

// cluster is the serve-cluster workload's generator and checker.
type cluster struct {
	seed   int64
	progs  []*clusterProg
	keys   []*clusterKey
	byHome map[string][]*clusterKey // home node name → keys it owns
}

func runCluster(_ context.Context, h *harness) error {
	w := &cluster{seed: h.cfg.seed, byHome: make(map[string][]*clusterKey)}
	names := nodeNames(3)
	for _, wl := range workloads.All() {
		p := &clusterProg{name: "u-" + wl.Name, source: wl.Source}
		for _, ds := range wl.Datasets {
			in := ds.Gen()
			// JSON strings carry UTF-8 only: a binary dataset would reach
			// the server altered, so it is left out.
			if overFuel[wl.Name+"/"+ds.Name] || !utf8.Valid(in) {
				continue
			}
			name := ds.Name
			if name == "-" {
				name = "default"
			}
			k := &clusterKey{req: profileReq{Program: p.name, Source: p.source, Dataset: name, Input: string(in)}}
			k.body = mustJSON(k.req)
			k.home = route.Pick(names, k.req.key())
			p.keys = append(p.keys, k)
			w.keys = append(w.keys, k)
			w.byHome[k.home] = append(w.byHome[k.home], k)
		}
		if len(p.keys) == 0 {
			continue
		}
		first := p.keys[0].req
		p.h2p = request{kind: "h2p", key: first.key(), path: "/v1/h2p", ctype: "application/json",
			body: mustJSON(map[string]any{"program": p.name, "source": p.source, "dataset": first.Dataset, "input": first.Input, "n": 10})}
		w.progs = append(w.progs, p)
	}
	h.info("cluster.programs", float64(len(w.progs)), "count", "paper programs with a dataset under the fuel budget")
	h.info("cluster.keys", float64(len(w.keys)), "count", "program@dataset keys preloaded and ingested")
	// One 93-request cycle (about a second) is one slice of the window.
	return runServe(h, w, 1)
}

func (w *cluster) deploy(tr *obs.Tracer) (*deployment, error) {
	d, err := deploy(deployOptions{nodes: 3, wal: true, gossip: gossipEvery, tr: tr})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	// Preload each key at its home node, so window ingest finds the run
	// in that node's engine cache.
	for home, keys := range w.byHome {
		for len(keys) > 0 {
			n := min(clusterBatch, len(keys))
			req := batchOf(keys[:n])
			keys = keys[n:]
			status, body, err := d.client.postNode(d.client.urls[home]+req.path, req.ctype, req.body)
			if err == nil {
				_, _, err = w.check(req, status, body)
			}
			if err != nil {
				return fail(fmt.Errorf("preload on %s: %w", home, err))
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := converge(ctx, d); err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	return d, nil
}

func batchOf(keys []*clusterKey) request {
	entries := make([]profileReq, len(keys))
	for i, k := range keys {
		entries[i] = k.req
	}
	return request{kind: "batch", key: entries[0].key(), path: "/v1/profile/batch", ctype: "application/json",
		body: mustJSON(map[string]any{"entries": entries})}
}

func (w *cluster) cycle(n int) []request {
	kinds := make([]string, 0, len(w.progs)+clusterMix["single"]+clusterMix["batch"]+clusterMix["predict"])
	for _, k := range []string{"single", "batch", "predict"} {
		for i := 0; i < clusterMix[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	for range w.progs {
		kinds = append(kinds, "h2p")
	}
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(n)))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]request, len(kinds))
	nextH2P := 0
	for i, k := range kinds {
		switch k {
		case "single":
			key := w.keys[rng.Intn(len(w.keys))]
			reqs[i] = request{kind: k, key: key.req.key(), path: "/v1/profile", ctype: "application/json", body: key.body}
		case "batch":
			// Eight keys sharing the first key's home node, so the batch
			// lands where every entry's run is cached.
			first := w.keys[rng.Intn(len(w.keys))]
			group := w.byHome[first.home]
			keys := []*clusterKey{first}
			for len(keys) < clusterBatch {
				keys = append(keys, group[rng.Intn(len(group))])
			}
			reqs[i] = batchOf(keys)
		case "predict":
			p := w.progs[rng.Intn(len(w.progs))]
			target := p.keys[rng.Intn(len(p.keys))].req
			reqs[i] = request{kind: k, key: target.key(), path: "/v1/predict", ctype: "application/json",
				body: mustJSON(map[string]string{"program": p.name, "source": p.source, "target_dataset": target.Dataset})}
		case "h2p":
			reqs[i] = w.progs[nextH2P].h2p
			nextH2P++
		}
	}
	return reqs
}

func (w *cluster) check(req request, status int, body []byte) ([]uint32, int, error) {
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %d: %.200s", req.path, status, body)
	}
	switch req.kind {
	case "single":
		return nil, 1, nil
	case "batch":
		var resp struct {
			Results []entryStatus `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, 0, fmt.Errorf("batch reply: %w", err)
		}
		ok := 0
		for _, r := range resp.Results {
			if r.Status != http.StatusOK {
				return nil, ok, fmt.Errorf("entry %d: %d %s", r.Index, r.Status, r.Error)
			}
			ok++
		}
		return nil, ok, nil
	case "predict":
		return nil, 0, checkPredict(body)
	default:
		var resp struct {
			Mode string `json:"mode"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, 0, fmt.Errorf("h2p reply: %w", err)
		}
		if resp.Mode != "traced" {
			return nil, 0, fmt.Errorf("h2p reply mode %q, want traced", resp.Mode)
		}
		return nil, 0, nil
	}
}

// verify stops the gossip, syncs until every node's snapshot is
// byte-identical, and reports how long that took.
func (w *cluster) verify(h *harness, d *deployment, _ []reply) error {
	d.quiesce()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	took, err := converge(ctx, d)
	h.info("repl.converge_s", took.Seconds(), "s", "end of load until all snapshots are byte-identical")
	ok := err == nil
	detail := "all node snapshots byte-identical"
	if !ok {
		detail = err.Error()
	}
	h.check("convergence", ok, detail)
	return nil
}

// converge runs sync rounds on every node until all snapshots are
// byte-identical, and returns how long that took.
func converge(ctx context.Context, d *deployment) (time.Duration, error) {
	start := time.Now()
	for {
		same, err := snapshotsEqual(ctx, d)
		if err != nil {
			return time.Since(start), err
		}
		if same {
			return time.Since(start), nil
		}
		if err := d.syncAll(ctx); err != nil {
			return time.Since(start), fmt.Errorf("sync: %w", err)
		}
		if ctx.Err() != nil {
			return time.Since(start), fmt.Errorf("snapshots still differ: %w", ctx.Err())
		}
	}
}

// snapshotsEqual reports whether every node's store snapshot encodes
// to the same bytes.
func snapshotsEqual(ctx context.Context, d *deployment) (bool, error) {
	var first []byte
	for i, n := range d.nodes {
		snap, err := n.srv.Store().Snapshot(ctx)
		if err != nil {
			return false, fmt.Errorf("snapshot of %s: %w", nodeName(i), err)
		}
		b, err := json.Marshal(snap)
		if err != nil {
			return false, fmt.Errorf("encoding snapshot of %s: %w", nodeName(i), err)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(first, b) {
			return false, nil
		}
	}
	return true, nil
}
