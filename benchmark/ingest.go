package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"branchprof/internal/engine"
	"branchprof/internal/obs"
	"branchprof/internal/vm"
)

// serve-ingest: the BENCH_SERVER baseline configuration (one node, a
// 4-shard store, no journal, no replication) under a seeded mix of the
// three ingest paths plus predict. Every input is unique, so the
// engine's run cache never hits: HTTP, JSON, admission, store merge
// and the per-request shard save do the work, and the VM is nearly
// idle on these small synthetic programs.
const (
	ingestPrograms = 64
	ingestDatasets = 4
	ingestKeys     = ingestPrograms * ingestDatasets
	ingestBatch    = 32 // entries per batch request and per stream
	ingestInputLen = 48 // random letters per input, after a unique prefix
	ingestFuel     = 1 << 26
)

// ingestSliceCycles is how many 20-request cycles (about a second)
// make one slice of the window.
const ingestSliceCycles = 40

// ingestMix is one cycle of the request mix: 40% single, 25% batch,
// 25% stream, 10% predict.
var ingestMix = map[string]int{"single": 8, "batch": 5, "stream": 5, "predict": 2}

// ingestSource returns synthetic program i. Each program branches on
// every input byte at two sites whose constants depend on i, so the 64
// programs compile to 64 distinct images.
func ingestSource(i int) string {
	return fmt.Sprintf(`
func main() int {
	var n int = 0;
	var m int = 0;
	var c int = getc();
	while (c >= 0) {
		if (c == %d) {
			n = n + 1;
		}
		if (c %% %d == 0) {
			m = m + 1;
		}
		c = getc();
	}
	return n + m;
}
`, 'a'+i%8, 2+i/8)
}

// profileReq is the body of one ingest entry (POST /v1/profile).
type profileReq struct {
	Program string `json:"program"`
	Source  string `json:"source"`
	Dataset string `json:"dataset"`
	Input   string `json:"input"`
}

func (p profileReq) key() string { return p.Program + "@" + p.Dataset }

// ingest is the serve-ingest workload's generator and checker.
type ingest struct {
	seed    int64
	sources []string
	nextID  uint32 // next window entry id; guarded by the schedule's lock
	tamper  bool
}

func runIngest(_ context.Context, h *harness) error {
	w := &ingest{seed: h.cfg.seed, nextID: ingestKeys, tamper: h.cfg.tamperAcks}
	for i := 0; i < ingestPrograms; i++ {
		w.sources = append(w.sources, ingestSource(i))
	}
	return runServe(h, w, ingestSliceCycles)
}

// mix64 is SplitMix64's finalizer: entry ids map to well-spread
// pseudo-random bits without any shared generator state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// entry derives ingest entry id from the seed. Ids below ingestKeys
// are the preload, one per key; later ids pick a key at random. Every
// input starts with its id, so no two entries share an input.
func (w *ingest) entry(id uint32) profileReq {
	h := mix64(uint64(w.seed)<<32 ^ uint64(id))
	prog, ds := int(h%ingestPrograms), int(h>>16)%ingestDatasets
	if id < ingestKeys {
		prog, ds = int(id)/ingestDatasets, int(id)%ingestDatasets
	}
	var in strings.Builder
	in.WriteString(strconv.FormatUint(uint64(id), 10))
	in.WriteByte(':')
	for j := 0; j < ingestInputLen; j++ {
		in.WriteByte(byte('a' + mix64(h+uint64(j))%8))
	}
	return profileReq{
		Program: fmt.Sprintf("prog%02d", prog),
		Source:  w.sources[prog],
		Dataset: fmt.Sprintf("d%d", ds),
		Input:   in.String(),
	}
}

// take allocates n consecutive window entry ids.
func (w *ingest) take(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = w.nextID
		w.nextID++
	}
	return ids
}

func (w *ingest) deploy(tr *obs.Tracer) (*deployment, error) {
	d, err := deploy(deployOptions{nodes: 1, tr: tr})
	if err != nil {
		return nil, err
	}
	for first := uint32(0); first < ingestKeys; first += ingestBatch {
		ids := make([]uint32, ingestBatch)
		for i := range ids {
			ids[i] = first + uint32(i)
		}
		req := w.batch(ids)
		status, body, err := d.client.post(req.key, req.path, req.ctype, req.body)
		if err == nil {
			_, _, err = w.check(req, status, body)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return d, nil
}

func (w *ingest) batch(ids []uint32) request {
	entries := make([]profileReq, len(ids))
	for i, id := range ids {
		entries[i] = w.entry(id)
	}
	return request{kind: "batch", key: entries[0].key(), path: "/v1/profile/batch", ctype: "application/json",
		body: mustJSON(map[string]any{"entries": entries}), ids: ids}
}

func (w *ingest) cycle(n int) []request {
	var kinds []string
	for _, k := range []string{"single", "batch", "stream", "predict"} {
		for i := 0; i < ingestMix[k]; i++ {
			kinds = append(kinds, k)
		}
	}
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(n)))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]request, len(kinds))
	for i, k := range kinds {
		switch k {
		case "single":
			ids := w.take(1)
			e := w.entry(ids[0])
			reqs[i] = request{kind: k, key: e.key(), path: "/v1/profile", ctype: "application/json", body: mustJSON(e), ids: ids}
		case "batch":
			reqs[i] = w.batch(w.take(ingestBatch))
		case "stream":
			ids := w.take(ingestBatch)
			var buf bytes.Buffer
			for _, id := range ids {
				buf.Write(mustJSON(w.entry(id)))
				buf.WriteByte('\n')
			}
			reqs[i] = request{kind: k, key: w.entry(ids[0]).key(), path: "/v1/profile/stream",
				ctype: "application/x-ndjson", body: buf.Bytes(), ids: ids}
		case "predict":
			prog, ds := rng.Intn(ingestPrograms), rng.Intn(ingestDatasets)
			p := profileReq{Program: fmt.Sprintf("prog%02d", prog), Dataset: fmt.Sprintf("d%d", ds)}
			reqs[i] = request{kind: k, key: p.key(), path: "/v1/predict", ctype: "application/json",
				body: mustJSON(map[string]string{"program": p.Program, "source": w.sources[prog], "target_dataset": p.Dataset})}
		}
	}
	return reqs
}

// entryStatus is the per-entry slot of batch and stream replies.
type entryStatus struct {
	Index  int    `json:"index"`
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// checkEntries acknowledges the entries whose slot reports 200 and
// fails the request if any slot is missing or failed.
func checkEntries(req request, results []entryStatus) ([]uint32, int, error) {
	var acked []uint32
	var firstErr error
	for _, r := range results {
		if r.Status == http.StatusOK && r.Index >= 0 && r.Index < len(req.ids) {
			acked = append(acked, req.ids[r.Index])
		} else if firstErr == nil {
			firstErr = fmt.Errorf("entry %d: %d %s", r.Index, r.Status, r.Error)
		}
	}
	if firstErr == nil && len(acked) != len(req.ids) {
		firstErr = fmt.Errorf("%d of %d entries acknowledged", len(acked), len(req.ids))
	}
	return acked, len(acked), firstErr
}

func (w *ingest) check(req request, status int, body []byte) ([]uint32, int, error) {
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %d: %.200s", req.path, status, body)
	}
	switch req.kind {
	case "single":
		return req.ids, 1, nil
	case "batch":
		var resp struct{ Results []entryStatus }
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, 0, fmt.Errorf("batch reply: %w", err)
		}
		return checkEntries(req, resp.Results)
	case "stream":
		return checkStream(req, body)
	default:
		return nil, 0, checkPredict(body)
	}
}

// checkStream parses an NDJSON stream reply: one slot per entry, then
// the summary, which must report every entry ok.
func checkStream(req request, body []byte) ([]uint32, int, error) {
	var results []entryStatus
	var sum struct {
		Done   bool `json:"done"`
		OK     int  `json:"ok"`
		Failed int  `json:"failed"`
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, 0, fmt.Errorf("stream summary: %w", err)
			}
			continue
		}
		var r entryStatus
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, 0, fmt.Errorf("stream line: %w", err)
		}
		results = append(results, r)
	}
	acked, n, err := checkEntries(req, results)
	if err == nil && (!sum.Done || sum.Failed != 0 || sum.OK != len(req.ids)) {
		err = fmt.Errorf("stream summary done=%t ok=%d failed=%d for %d entries", sum.Done, sum.OK, sum.Failed, len(req.ids))
	}
	return acked, n, err
}

// checkPredict requires a prediction for at least one branch site.
func checkPredict(body []byte) error {
	var resp struct {
		Sites []json.RawMessage `json:"sites"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("predict reply: %w", err)
	}
	if len(resp.Sites) == 0 {
		return errors.New("predict reply has no sites")
	}
	return nil
}

// verify is the exactly-once check, outside the timed window: every
// acknowledged entry (the preload and the window's) is re-executed on
// a private engine, and each program's executed-branch total in
// /v1/programs must equal the sum over its acknowledged entries.
func (w *ingest) verify(h *harness, d *deployment, replies []reply) error {
	ids := make([]uint32, 0, ingestKeys)
	for id := uint32(0); id < ingestKeys; id++ {
		ids = append(ids, id)
	}
	for _, r := range replies {
		ids = append(ids, r.acked...)
	}
	eng := engine.New(engine.Options{})
	executed := make([]uint64, len(ids))
	if err := eng.Parallel(len(ids), func(i int) error {
		e := w.entry(ids[i])
		out, err := eng.Execute(engine.Spec{Name: e.Program, Source: e.Source, Dataset: e.Dataset,
			Input: []byte(e.Input), Config: vm.Config{Fuel: ingestFuel}})
		if err != nil {
			return err
		}
		executed[i] = out.Prof.Executed()
		return nil
	}); err != nil {
		return fmt.Errorf("re-executing acknowledged entries: %w", err)
	}
	want := make(map[string]uint64)
	for i, id := range ids {
		want[w.entry(id).Program] += executed[i]
	}
	if w.tamper {
		want["prog00"]++
	}

	status, body, err := d.client.get(d.urls[0] + "/v1/programs")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/programs: %d %v", status, err)
	}
	var inv struct {
		Programs []struct {
			Program  string `json:"program"`
			Executed uint64 `json:"executed"`
		} `json:"programs"`
	}
	if err := json.Unmarshal(body, &inv); err != nil {
		return fmt.Errorf("/v1/programs reply: %w", err)
	}
	got := make(map[string]uint64)
	for _, p := range inv.Programs {
		got[p.Program] = p.Executed
	}
	bad := 0
	var first string
	for prog, n := range want {
		if got[prog] != n {
			if bad == 0 {
				first = fmt.Sprintf("%s: stored %d, acknowledged %d", prog, got[prog], n)
			}
			bad++
		}
	}
	if len(got) != len(want) && bad == 0 {
		bad, first = 1, fmt.Sprintf("%d programs stored, %d acknowledged", len(got), len(want))
	}
	detail := fmt.Sprintf("%d acknowledged profiles over %d programs counted exactly once", len(ids), len(want))
	if bad > 0 {
		detail = fmt.Sprintf("%d programs miscounted; first %s", bad, first)
	}
	h.check("exactly-once", bad == 0, detail)
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the harness's own plain structs are encoded
	}
	return b
}
