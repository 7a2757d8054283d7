package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"branchprof/internal/engine"
	"branchprof/internal/store"
	"branchprof/internal/vm"
)

// Batch and streaming ingest: POST /v1/profile/batch accepts many
// profile requests in one body and fans them out across the engine's
// worker pool (one admission slot, one store save for every touched
// shard); POST /v1/profile/stream accepts NDJSON — one profile
// request per line — and answers NDJSON, one result per line plus a
// trailing summary, saving touched shards periodically so a long
// stream's profiles become durable as it flows rather than only at
// the end.

const (
	// maxBatchEntries caps one batch body. The transport body cap
	// (MaxBodyBytes) usually binds first; this bounds the slice even
	// for tiny entries.
	maxBatchEntries = 256
	// streamSaveEvery is how many landed stream merges accumulate
	// before the stream commits them (a save window).
	streamSaveEvery = 32
)

// batchRequest is the POST /v1/profile/batch body.
type batchRequest struct {
	Entries []profileRequest `json:"entries"`
}

// batchEntry is one entry's outcome, in entry order. Status carries
// the HTTP status the entry would have received as a single request.
type batchEntry struct {
	Index   int              `json:"index"`
	Status  int              `json:"status"`
	Error   string           `json:"error,omitempty"`
	Profile *profileResponse `json:"profile,omitempty"`
}

// batchResponse is the POST /v1/profile/batch reply. The batch itself
// is 200 whenever it was well-formed; per-entry failures live in
// Results.
type batchResponse struct {
	Results   []batchEntry `json:"results"`
	OK        int          `json:"ok"`
	Failed    int          `json:"failed"`
	Persisted bool         `json:"persisted"`
	// Journaled reports whether the batch's merges are in the
	// write-ahead journal per the configured fsync policy; false when
	// the server runs without -wal.
	Journaled bool `json:"journaled"`
	Degraded  bool `json:"degraded"`
}

// specFor converts a validated profile request into an engine spec.
func (s *Server) specFor(req *profileRequest) engine.Spec {
	fuel := req.Fuel
	if fuel == 0 || fuel > s.opts.MaxFuel {
		fuel = s.opts.MaxFuel
	}
	return engine.Spec{
		Name:    req.Program,
		Source:  req.Source,
		Options: req.Options,
		Dataset: req.Dataset,
		Input:   []byte(req.Input),
		Config:  vm.Config{Fuel: fuel},
	}
}

// mergeOutcome folds one successful execution into the store and
// builds the entry's profile summary. It returns the touched store
// key ("" when the merge failed) alongside the entry.
func (s *Server) mergeOutcome(ctx context.Context, req *profileRequest, out *engine.Outcome) (string, batchEntry) {
	key := dbKey(req.Program, req.Dataset)
	prof := out.Prof.Clone()
	prof.Program = key
	if err := s.store.Merge(ctx, prof); err != nil {
		if errors.Is(err, store.ErrConflict) {
			return "", batchEntry{
				Status: http.StatusConflict,
				Error: fmt.Sprintf("profile conflicts with accumulated data for %s/%s (source or options changed?): %v",
					req.Program, req.Dataset, err),
			}
		}
		code, msg := classify(err)
		return "", batchEntry{Status: code, Error: msg}
	}
	acc, err := s.store.Get(ctx, key)
	if err != nil || acc == nil {
		return key, batchEntry{Status: http.StatusInternalServerError,
			Error: fmt.Sprintf("reading back accumulated profile: %v", err)}
	}
	return key, batchEntry{
		Status: http.StatusOK,
		Profile: &profileResponse{
			Program:      req.Program,
			Dataset:      req.Dataset,
			Sites:        acc.Sites(),
			Executed:     acc.Executed(),
			Taken:        acc.TakenCount(),
			PercentTaken: acc.PercentTaken(),
			Coverage:     acc.Coverage(),
			Instrs:       out.Res.Instrs,
			CacheHit:     out.CacheHit,
		},
	}
}

// ingest is the validate → execute → merge half every ingest route
// shares. Each request is validated up front (a failure costs only its
// own slot, 400); the valid ones execute concurrently on the engine
// pool; each successful run merges into the store. It returns the
// per-entry outcomes in request order, and the keys whose merge landed
// — what the caller hands to commit, even when the entry then failed
// its read-back, because the mutation is applied either way.
func (s *Server) ingest(ctx context.Context, reqs []profileRequest) (results []batchEntry, touched []string) {
	results = make([]batchEntry, len(reqs))
	var specs []engine.Spec
	var specIdx []int // spec position → entry index
	for i := range reqs {
		results[i].Index = i
		if err := validateProfileRequest(&reqs[i]); err != nil {
			results[i].Status = http.StatusBadRequest
			results[i].Error = err.Error()
			continue
		}
		specs = append(specs, s.specFor(&reqs[i]))
		specIdx = append(specIdx, i)
	}

	outs := s.eng.ExecuteBatch(ctx, specs)
	s.feedEngineDiskHealth()
	for pos, res := range outs {
		i := specIdx[pos]
		if res.Err != nil {
			results[i].Status, results[i].Error = classify(res.Err)
			continue
		}
		key, entry := s.mergeOutcome(ctx, &reqs[i], res.Out)
		entry.Index = i
		results[i] = entry
		if key != "" {
			touched = append(touched, key)
		}
	}
	return results, touched
}

// handleProfileBatch ingests a batch of profile requests through
// ingest, then commits every touched key once. Entries fail
// independently — one hostile entry costs only its own slot in
// Results.
func (s *Server) handleProfileBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Entries) == 0 {
		writeError(w, http.StatusBadRequest, "entries must not be empty")
		return
	}
	if len(req.Entries) > maxBatchEntries {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch exceeds %d entries", maxBatchEntries))
		return
	}

	results, touched := s.ingest(r.Context(), req.Entries)
	journaled, persisted := s.commit(r.Context(), touched)
	resp := batchResponse{Results: results, Persisted: persisted, Journaled: journaled, Degraded: s.Degraded()}
	for i := range results {
		if results[i].Status == http.StatusOK {
			resp.OK++
			results[i].Profile.Persisted = persisted
			results[i].Profile.Journaled = journaled
			results[i].Profile.Degraded = resp.Degraded
		} else {
			resp.Failed++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamSummary is the trailing NDJSON object a stream reply ends
// with: total accounting plus the stream's two durability outcomes,
// reported separately because they answer different questions —
// Journaled ("would a crash right now lose accepted entries?") and
// Saved ("did the driver's own save land?"). Persisted mirrors Saved
// for pre-journal clients.
type streamSummary struct {
	Done   bool `json:"done"`
	Lines  int  `json:"lines"`
	OK     int  `json:"ok"`
	Failed int  `json:"failed"`
	// Journaled: every accepted entry reached the write-ahead journal
	// per the configured fsync policy. False when the server runs
	// without -wal, or any journal commit failed.
	Journaled bool `json:"journaled"`
	// Saved: every periodic and final save of the touched shards
	// landed in the wrapped driver.
	Saved     bool `json:"saved"`
	Persisted bool `json:"persisted"`
	Degraded  bool `json:"degraded"`
}

// handleProfileStream ingests NDJSON: one profile request per line,
// answered line-by-line (same shape as batch entries) with a summary
// object last. Each line runs through ingest as a batch of one, in
// arrival order; touched keys are committed every streamSaveEvery
// landed merges and once at the end, so a crash mid-stream loses at
// most one save window.
func (s *Server) handleProfileStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Interleaved request reads and response writes: without full
	// duplex, HTTP/1 drains the remaining request body at the first
	// response flush (keep-alive hygiene), deadlocking against a client
	// that streams lines as it reads results. Unsupported transports
	// (the in-process test recorder) still work half-duplex.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out before reading any input: a streaming
		// client sees the 200 (and can start its response reader)
		// as soon as the stream opens, not after its first line.
		flusher.Flush()
	}
	// Results are buffered and flushed only when the handler is about
	// to block: before each read of the request body, and after the
	// summary. A client that sends its whole stream up front gets its
	// results in a few large writes instead of one flush per line,
	// while a client that waits for each result before sending its
	// next line still receives it, because the handler flushes before
	// waiting for that line.
	enc := json.NewEncoder(w)
	pending := false
	emit := func(v any) {
		enc.Encode(v) //nolint:errcheck // client gone is not actionable
		pending = true
	}
	flush := func() {
		if pending && flusher != nil {
			flusher.Flush()
		}
		pending = false
	}
	body := readerFunc(func(p []byte) (int, error) {
		flush()
		return r.Body.Read(p)
	})

	// Each line is size-capped like a single request body; the stream
	// itself is bounded by the request deadline, not by length.
	sc := bufio.NewScanner(body)
	maxLine := int(s.opts.MaxBodyBytes)
	sc.Buffer(make([]byte, 64<<10), maxLine)

	// Touched keys commit every streamSaveEvery landed merges and once
	// at the end; each flag in the summary is the AND over those
	// commit windows, false when there was none.
	sum := streamSummary{Done: true}
	var touched []string
	windows := 0
	journaled, saved := true, true
	commitWindow := func() {
		if len(touched) == 0 {
			return
		}
		j, sv := s.commit(r.Context(), touched)
		journaled, saved = journaled && j, saved && sv
		windows++
		touched = touched[:0]
	}

	line := 0
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var entry batchEntry
		var req profileRequest
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			entry = batchEntry{Status: http.StatusBadRequest, Error: "malformed JSON: " + err.Error()}
		} else {
			results, t := s.ingest(r.Context(), []profileRequest{req})
			entry = results[0]
			touched = append(touched, t...)
		}
		entry.Index = line
		if entry.Status == http.StatusOK {
			sum.OK++
		} else {
			sum.Failed++
		}
		line++
		emit(entry)
		if len(touched) >= streamSaveEvery {
			commitWindow()
		}
		if r.Context().Err() != nil {
			break // deadline or client gone: stop reading, summarize
		}
	}
	if err := sc.Err(); err != nil {
		sum.Failed++
		emit(batchEntry{Index: line, Status: http.StatusBadRequest,
			Error: "reading stream: " + err.Error()})
	}
	commitWindow()
	sum.Lines = line
	sum.Saved = saved && windows > 0
	sum.Persisted = sum.Saved
	sum.Journaled = journaled && windows > 0
	sum.Degraded = s.Degraded()
	emit(sum)
	flush()
}

// readerFunc adapts a function to io.Reader.
type readerFunc func(p []byte) (int, error)

// Read implements io.Reader.
func (f readerFunc) Read(p []byte) (int, error) { return f(p) }
