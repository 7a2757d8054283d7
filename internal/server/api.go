package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"branchprof/internal/engine"
	"branchprof/internal/exp"
	"branchprof/internal/ifprob"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
)

// Request size limits beyond the transport body cap: a program or
// dataset that blows these is rejected before any compute is spent.
const (
	maxNameLen   = 100
	maxSourceLen = 256 << 10
	maxInputLen  = 1 << 20
)

// nameRE validates program and dataset names. '@' is excluded so the
// composite database key stays unambiguous; path characters are
// excluded so names can never traverse anything downstream.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$`)

// profileRequest is the POST /v1/profile body: run a program on a
// dataset and accumulate its branch profile.
type profileRequest struct {
	Program string      `json:"program"`
	Source  string      `json:"source"`
	Dataset string      `json:"dataset"`
	Input   string      `json:"input"`
	Options mfc.Options `json:"options"`
	// Fuel caps the run's instruction budget; 0 (or anything above the
	// server's MaxFuel) is clamped to MaxFuel.
	Fuel uint64 `json:"fuel"`
}

// profileResponse summarizes the accumulated profile after the run.
type profileResponse struct {
	Program      string  `json:"program"`
	Dataset      string  `json:"dataset"`
	Sites        int     `json:"sites"`
	Executed     uint64  `json:"executed"`
	Taken        uint64  `json:"taken"`
	PercentTaken float64 `json:"percent_taken"`
	Coverage     float64 `json:"coverage"`
	Instrs       uint64  `json:"instrs"`
	CacheHit     bool    `json:"cache_hit"`
	// Persisted reports whether the updated database reached disk;
	// false in compute-only degraded mode (see /healthz).
	Persisted bool `json:"persisted"`
	// Journaled reports whether the update is in the write-ahead
	// journal per the configured fsync policy — durable across a crash
	// even when Persisted is false. Always false when the server runs
	// without -wal.
	Journaled bool `json:"journaled"`
	Degraded  bool `json:"degraded"`
}

// predictRequest is the POST /v1/predict body: predict per-branch
// directions for a program from its accumulated profiles.
type predictRequest struct {
	Program string      `json:"program"`
	Source  string      `json:"source"`
	Options mfc.Options `json:"options"`
	// Mode is "scaled" (default), "unscaled" or "polling".
	Mode string `json:"mode"`
	// TargetDataset, when set, is held out of the training set and —
	// when its profile is in the database — evaluated against, the
	// paper's cross-dataset experiment.
	TargetDataset string `json:"target_dataset"`
}

// sitePrediction is one static branch's predicted direction.
type sitePrediction struct {
	ID          int    `json:"id"`
	Func        string `json:"func"`
	Line        int    `json:"line"`
	Label       string `json:"label"`
	Direction   string `json:"direction"`
	FromProfile bool   `json:"from_profile"`
}

// predictEval reports prediction quality against the held-out target
// dataset, including the paper's instructions-per-mispredict measure.
type predictEval struct {
	TargetDataset       string  `json:"target_dataset"`
	Executed            uint64  `json:"executed"`
	Mispredicts         uint64  `json:"mispredicts"`
	PercentCorrect      float64 `json:"percent_correct"`
	InstrsPerMispredict float64 `json:"instrs_per_mispredict"`
}

// predictResponse is the POST /v1/predict reply.
type predictResponse struct {
	Program string `json:"program"`
	Mode    string `json:"mode"`
	// TrainedOn lists the datasets whose profiles fed the prediction;
	// empty when the prediction is heuristic-only.
	TrainedOn     []string         `json:"trained_on"`
	HeuristicOnly bool             `json:"heuristic_only"`
	Sites         []sitePrediction `json:"sites"`
	Eval          *predictEval     `json:"eval,omitempty"`
	// EvalError is set when a held-out target profile existed but the
	// evaluation against it failed; it distinguishes "evaluation went
	// wrong" (Eval nil, EvalError set) from "no target profile to
	// evaluate against" (both empty).
	EvalError string `json:"eval_error,omitempty"`
	Degraded  bool   `json:"degraded"`
}

// programInfo is one entry of GET /v1/programs.
type programInfo struct {
	Program  string   `json:"program"`
	Datasets []string `json:"datasets"`
	Sites    int      `json:"sites"`
	Executed uint64   `json:"executed"`
}

// decodeBody parses the limited request body into v. The error is
// pre-classified: oversized bodies are 413, malformed JSON 400.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		}
		return false
	}
	return true
}

// validateNames rejects out-of-contract program/dataset identifiers
// and source/input blobs before any compute is admitted.
func validateProfileRequest(req *profileRequest) error {
	if !nameRE.MatchString(req.Program) {
		return fmt.Errorf("program name must match %s", nameRE)
	}
	if !nameRE.MatchString(req.Dataset) {
		return fmt.Errorf("dataset name must match %s", nameRE)
	}
	if req.Source == "" {
		return errors.New("source is required")
	}
	if len(req.Source) > maxSourceLen {
		return fmt.Errorf("source exceeds %d bytes", maxSourceLen)
	}
	if len(req.Input) > maxInputLen {
		return fmt.Errorf("input exceeds %d bytes", maxInputLen)
	}
	return nil
}

// handleProfile runs one program×dataset measurement and accumulates
// its profile in the database: a batch of one, answered with the
// entry's profile or its error.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	results, touched := s.ingest(r.Context(), []profileRequest{req})
	journaled, persisted := s.commit(r.Context(), touched)
	entry := results[0]
	if entry.Status != http.StatusOK {
		writeError(w, entry.Status, entry.Error)
		return
	}
	entry.Profile.Persisted = persisted
	entry.Profile.Journaled = journaled
	entry.Profile.Degraded = s.Degraded()
	writeJSON(w, http.StatusOK, entry.Profile)
}

// storedProfile is one dataset's stored profile of a program.
type storedProfile struct {
	dataset string
	prof    *ifprob.Profile
}

// storedProfiles returns program's stored profiles in key order
// (store.Store.Keys is sorted). Each handler applies its own filter.
func (s *Server) storedProfiles(ctx context.Context, program string) ([]storedProfile, error) {
	keys, err := s.store.Keys(ctx)
	if err != nil {
		return nil, err
	}
	var out []storedProfile
	for _, key := range keys {
		p, ds := splitDBKey(key)
		if p != program {
			continue
		}
		prof, err := s.store.Get(ctx, key)
		if err != nil || prof == nil {
			continue // key raced away between Keys and Get
		}
		out = append(out, storedProfile{ds, prof})
	}
	return out, nil
}

// handlePredict serves a cross-dataset prediction for a program from
// the profiles accumulated so far.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !nameRE.MatchString(req.Program) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("program name must match %s", nameRE))
		return
	}
	if req.Source == "" || len(req.Source) > maxSourceLen {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("source is required and at most %d bytes", maxSourceLen))
		return
	}
	if req.TargetDataset != "" && !nameRE.MatchString(req.TargetDataset) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("target_dataset name must match %s", nameRE))
		return
	}
	var mode predict.CombineMode
	switch req.Mode {
	case "", "scaled":
		mode = predict.Scaled
	case "unscaled":
		mode = predict.Unscaled
	case "polling":
		mode = predict.Polling
	default:
		writeError(w, http.StatusBadRequest, `mode must be "scaled", "unscaled" or "polling"`)
		return
	}
	prog, err := s.eng.CompileContext(r.Context(), req.Program, req.Source, req.Options)
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}

	// Gather the program's per-dataset profiles, holding out the target.
	stored, err := s.storedProfiles(r.Context(), req.Program)
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}
	var train []*ifprob.Profile
	var trainedOn []string
	var target *ifprob.Profile
	for _, sp := range stored {
		if sp.prof.Sites() != len(prog.Sites) {
			// Accumulated under a different compilation of the same
			// name; unusable for this image.
			continue
		}
		if sp.dataset == req.TargetDataset {
			target = sp.prof
			continue
		}
		train = append(train, sp.prof)
		trainedOn = append(trainedOn, sp.dataset)
	}

	pr, err := predict.Combine(train, mode, prog.Sites, predict.LoopHeuristic)
	heuristicOnly := false
	if errors.Is(err, predict.ErrNoProfiles) {
		// No training data yet: fall back to the static heuristic, the
		// compiler's default when no feedback exists.
		pr = predict.FromHeuristic(prog.Sites, predict.LoopHeuristic)
		heuristicOnly = true
	} else if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := predictResponse{
		Program:       req.Program,
		Mode:          mode.String(),
		TrainedOn:     trainedOn,
		HeuristicOnly: heuristicOnly,
		Degraded:      s.Degraded(),
	}
	resp.Sites = make([]sitePrediction, len(prog.Sites))
	for i, site := range prog.Sites {
		fromProfile := !heuristicOnly && i < len(pr.FromProfile) && pr.FromProfile[i]
		resp.Sites[i] = sitePrediction{
			ID:          site.ID,
			Func:        site.Func,
			Line:        site.Line,
			Label:       site.Label,
			Direction:   pr.Dir[i].String(),
			FromProfile: fromProfile,
		}
	}
	if target != nil {
		ev, err := predict.Evaluate(pr, target)
		if err != nil {
			resp.EvalError = err.Error()
		} else {
			ipm := float64(target.Instrs)
			if ev.Mispredicts > 0 {
				ipm /= float64(ev.Mispredicts)
			} else {
				ipm = math.Inf(1)
			}
			resp.Eval = &predictEval{
				TargetDataset:       req.TargetDataset,
				Executed:            ev.Executed,
				Mispredicts:         ev.Mispredicts,
				PercentCorrect:      ev.PercentCorrect(),
				InstrsPerMispredict: ipm,
			}
		}
	}
	// InstrsPerMispredict is +Inf for a perfectly predicted target;
	// route past encoding/json's non-finite rejection.
	data, err := exp.MarshalSafe(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck // client gone is not actionable
}

// pageParam parses a non-negative integer query parameter, reporting
// (value, ok); absence yields the default.
func pageParam(r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// handlePrograms lists the accumulated profile inventory, paged with
// ?limit=N&offset=M over the program list (sorted by name). limit=0
// (the default) returns everything; the reply always carries the
// total so clients can page without a count round-trip.
func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit, ok := pageParam(r, "limit", 0)
	if !ok {
		writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
		return
	}
	offset, ok := pageParam(r, "offset", 0)
	if !ok {
		writeError(w, http.StatusBadRequest, "offset must be a non-negative integer")
		return
	}
	keys, err := s.store.Keys(r.Context())
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}
	byProgram := make(map[string]*programInfo)
	for _, key := range keys {
		p, ds := splitDBKey(key)
		prof, err := s.store.Get(r.Context(), key)
		if err != nil || prof == nil {
			continue // key raced away between Keys and Get
		}
		info := byProgram[p]
		if info == nil {
			info = &programInfo{Program: p, Sites: prof.Sites()}
			byProgram[p] = info
		}
		info.Datasets = append(info.Datasets, ds)
		info.Executed += prof.Executed()
	}
	names := make([]string, 0, len(byProgram))
	for n := range byProgram {
		names = append(names, n)
	}
	sort.Strings(names)
	total := len(names)
	if offset > total {
		offset = total
	}
	names = names[offset:]
	if limit > 0 && limit < len(names) {
		names = names[:limit]
	}
	out := make([]programInfo, 0, len(names))
	for _, n := range names {
		sort.Strings(byProgram[n].Datasets)
		out = append(out, *byProgram[n])
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"programs": out,
		"total":    total,
		"offset":   offset,
	})
}

// storeHealth is the store detail inside /healthz.
type storeHealth struct {
	Driver     string        `json:"driver"`
	Persistent bool          `json:"persistent"`
	Degraded   bool          `json:"degraded"`
	Keys       int           `json:"keys"`
	Shards     []shardHealth `json:"shards,omitempty"`
}

// shardHealth is one shard's health inside /healthz.
type shardHealth struct {
	Name    string `json:"name"`
	Keys    int    `json:"keys"`
	Dirty   bool   `json:"dirty"`
	Breaker string `json:"breaker"`
}

// walHealth is the write-ahead journal detail inside /healthz; absent
// when the server runs without -wal.
type walHealth struct {
	Dir      string `json:"dir"`
	Policy   string `json:"policy"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	// Pending counts journaled records the wrapped driver has not yet
	// saved — the replay backlog a crash right now would recover.
	Pending  int    `json:"pending"`
	LastSeq  uint64 `json:"last_seq"`
	Replayed uint64 `json:"replayed"`
	// Broken means a torn append poisoned the log's tail; ingest is
	// rejected until restart (which truncates the tear and replays).
	Broken bool `json:"broken"`
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status        string  `json:"status"` // "ok" or "degraded"
	Breaker       string  `json:"breaker"`
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Engine disk-cache trouble the operator should know about even
	// when the breaker has recovered.
	CacheWriteErrors uint64      `json:"cache_write_errors"`
	CacheInvalid     uint64      `json:"cache_invalid"`
	Programs         int         `json:"programs"`
	Store            storeHealth `json:"store"`
	// Repl reports the replication layer's per-peer health; absent on
	// standalone nodes.
	Repl *replHealth `json:"repl,omitempty"`
	// WAL reports the write-ahead journal's health; absent without -wal.
	WAL *walHealth `json:"wal,omitempty"`
}

// handleHealthz reports liveness plus degradation detail. It always
// answers 200 while the process is up — degradation is data, not
// death — and bypasses admission control so overload cannot starve it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	status := "ok"
	if s.Degraded() {
		status = "degraded"
	}
	ss := s.store.Stats()
	sh := storeHealth{
		Driver:     ss.Driver,
		Persistent: ss.Persistent,
		Degraded:   ss.Degraded,
		Keys:       ss.Keys,
	}
	for _, shard := range ss.Shards {
		sh.Shards = append(sh.Shards, shardHealth{
			Name:    shard.Name,
			Keys:    shard.Keys,
			Dirty:   shard.Dirty,
			Breaker: shard.Breaker,
		})
	}
	var wh *walHealth
	if s.wal != nil {
		ws := s.wal.WALStats()
		wh = &walHealth{
			Dir:      ws.Dir,
			Policy:   string(ws.Policy),
			Segments: ws.Segments,
			Bytes:    ws.Bytes,
			Pending:  ws.Pending,
			LastSeq:  ws.LastSeq,
			Replayed: ws.Replayed,
			Broken:   ws.Broken,
		}
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:           status,
		Breaker:          s.breaker.State().String(),
		Draining:         s.draining.Load(),
		UptimeSeconds:    s.uptime().Seconds(),
		CacheWriteErrors: st.DiskWriteErrs,
		CacheInvalid:     st.DiskInvalid,
		Programs:         ss.Keys,
		Store:            sh,
		Repl:             s.replHealthz(),
		WAL:              wh,
	})
}

// handleReadyz reports readiness for traffic: 200 after Listen, 503
// once draining begins (before the listener closes, so load balancers
// see the flip while connections still work).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	reason := "not started"
	if s.draining.Load() {
		reason = "draining"
	}
	writeError(w, http.StatusServiceUnavailable, reason)
}

// classify maps a pipeline error to the HTTP status that tells the
// client whose fault it was: bad programs are 400, programs that
// trap at runtime are 422, deadlines 504, cancellations 499, drain
// 503 — and anything else (including recovered panics and injected
// faults) is an honest 500.
func classify(err error) (int, string) {
	var se *engine.StageError
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "internal error: " + err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded: " + err.Error()
	case errors.Is(err, context.Canceled):
		return statusClientGone, "cancelled: " + err.Error()
	}
	if errors.As(err, &se) {
		switch se.Stage {
		case "compile":
			return http.StatusBadRequest, "compile error: " + trimEngine(err)
		case "run", "profile":
			if isTrap(err) {
				return http.StatusUnprocessableEntity, "runtime trap: " + trimEngine(err)
			}
		}
	} else if isTrap(err) {
		// A run outside the staged pipeline (Engine.RunContext, under
		// the traced h2p replay) reports the VM's trap unwrapped.
		return http.StatusUnprocessableEntity, "runtime trap: " + err.Error()
	}
	return http.StatusInternalServerError, "internal error: " + err.Error()
}

// isTrap reports whether err is a VM resource/behaviour trap — the
// program's fault, not the server's.
func isTrap(err error) bool {
	var re *vm.RuntimeError
	return errors.Is(err, vm.ErrFuel) || errors.As(err, &re)
}

// trimEngine drops the "engine: <stage> <spec>: " prefix so client
// errors read as their cause.
func trimEngine(err error) string {
	msg := err.Error()
	if i := strings.Index(msg, ": "); i >= 0 && strings.HasPrefix(msg, "engine: ") {
		if j := strings.Index(msg[i+2:], ": "); j >= 0 {
			return msg[i+2+j+2:]
		}
	}
	return msg
}
