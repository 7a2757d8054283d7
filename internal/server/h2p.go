package server

import (
	"errors"
	"fmt"
	"net/http"

	"branchprof/internal/exp"
	"branchprof/internal/ifprob"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/runlength"
)

// The /v1/h2p endpoint serves hard-to-predict branch reports: which
// static branches keep costing mispredicts no matter the predictor
// (Lin & Tarsa's H2P characterization), ranked by mispredicts per
// kilo-instruction. It has two modes:
//
//   - GET ?program=X&n=N answers purely from stored profiles: per-site
//     taken-rate, outcome entropy, and the cost of the best static
//     prediction (min(taken, not-taken) mispredicts), with no program
//     re-run — cheap, but blind to history-sensitive behaviour;
//   - POST {program, source, dataset, input, ...} compiles and traces
//     one run through the full predictor zoo (profile-fed static,
//     1-bit, 2-bit, two-level, gshare, bi-mode) plus the per-branch
//     outcome recorder, and ranks sites by their minimum MPKI across
//     schemes — the real H2P score. It is the paper pipeline's traced
//     replay and ranking (exp.CachedReplay, Replay.H2P) with one
//     "profile" table in place of self/others. The replay is an engine
//     derived entry keyed by the program, input, fuel and the profile
//     table bit for bit, so a repeat request traces nothing until a
//     stored profile flips a predicted direction.

// h2pProfileSite is one ranked branch in the profile-only (GET) report.
type h2pProfileSite struct {
	Site     int    `json:"site"`
	Executed uint64 `json:"executed"`
	Taken    uint64 `json:"taken"`
	// TakenRate and Entropy characterize the outcome distribution;
	// MPKI is the per-kilo-instruction cost of the best static
	// prediction for the site — a lower bound on what any per-site
	// static scheme pays, computable without re-running the program.
	TakenRate float64 `json:"taken_rate"`
	Entropy   float64 `json:"entropy"`
	MPKI      float64 `json:"mpki"`
}

// h2pProfileResponse is the GET /v1/h2p reply.
type h2pProfileResponse struct {
	Program  string   `json:"program"`
	Mode     string   `json:"mode"` // "profiles"
	Datasets []string `json:"datasets"`
	// SkippedDatasets lists profiles accumulated under a different
	// compilation (site-count mismatch with the first dataset seen);
	// they cannot be merged into one per-site view.
	SkippedDatasets []string         `json:"skipped_datasets,omitempty"`
	Sites           int              `json:"sites"`
	Instrs          uint64           `json:"instrs"`
	Top             []h2pProfileSite `json:"top"`
	Degraded        bool             `json:"degraded"`
}

// h2pRequest is the POST /v1/h2p body: one traced run through the
// predictor zoo.
type h2pRequest struct {
	Program string      `json:"program"`
	Source  string      `json:"source"`
	Dataset string      `json:"dataset"`
	Input   string      `json:"input"`
	Options mfc.Options `json:"options"`
	// Fuel caps the run's instruction budget; 0 (or anything above the
	// server's MaxFuel) is clamped to MaxFuel.
	Fuel uint64 `json:"fuel"`
	// N caps the ranking; 0 means 10.
	N int `json:"n"`
}

// h2pTracedResponse is the POST /v1/h2p reply.
type h2pTracedResponse struct {
	Program string `json:"program"`
	Mode    string `json:"mode"` // "traced"
	Dataset string `json:"dataset"`
	// TrainedOn lists the stored datasets that fed the static
	// profile-based scheme; empty means it fell back to the loop
	// heuristic.
	TrainedOn     []string      `json:"trained_on"`
	HeuristicOnly bool          `json:"heuristic_only"`
	Sites         int           `json:"sites"`
	Instrs        uint64        `json:"instrs"`
	Top           []exp.H2PSite `json:"top"`
	Degraded      bool          `json:"degraded"`
}

// handleH2P dispatches on method: GET is the profile-only report,
// POST the traced run.
func (s *Server) handleH2P(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleH2PProfiles(w, r)
	case http.MethodPost:
		s.handleH2PTraced(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// handleH2PProfiles characterizes a program's branches from its stored
// profiles alone.
func (s *Server) handleH2PProfiles(w http.ResponseWriter, r *http.Request) {
	program := r.URL.Query().Get("program")
	if !nameRE.MatchString(program) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("program name must match %s", nameRE))
		return
	}
	n, ok := pageParam(r, "n", 10)
	if !ok {
		writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
		return
	}
	stored, err := s.storedProfiles(r.Context(), program)
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}
	// Merge every stored profile that shares the first-seen compiled
	// shape; profiles from a different compilation of the same name are
	// reported as skipped rather than silently mixed.
	var merged *ifprob.Profile
	resp := h2pProfileResponse{Program: program, Mode: "profiles"}
	for _, sp := range stored {
		// Stored profiles carry the composite program@dataset key in
		// Program; normalize so per-dataset profiles of one program merge.
		prof := sp.prof.Clone()
		prof.Program = program
		if merged == nil {
			merged = prof
			resp.Datasets = append(resp.Datasets, sp.dataset)
			continue
		}
		if prof.Sites() != merged.Sites() || merged.Merge(prof) != nil {
			resp.SkippedDatasets = append(resp.SkippedDatasets, sp.dataset)
			continue
		}
		resp.Datasets = append(resp.Datasets, sp.dataset)
	}
	if merged == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no profiles accumulated for %q", program))
		return
	}
	resp.Sites = merged.Sites()
	resp.Instrs = merged.Instrs
	// Rank under one scheme, the best static prediction: it follows the
	// majority direction, so it mispredicts the minority count.
	stats := make([]runlength.SiteStats, len(merged.Total))
	best := make([]uint64, len(merged.Total))
	for i, total := range merged.Total {
		taken := merged.Taken[i]
		stats[i] = runlength.Outcome(i, taken, total)
		best[i] = min(taken, total-taken)
	}
	entries := runlength.RankH2P(stats, merged.Instrs, []runlength.SchemeMisses{{Scheme: "best-static", Misses: best}}, n)
	resp.Top = make([]h2pProfileSite, len(entries))
	for i, e := range entries {
		resp.Top[i] = h2pProfileSite{
			Site:      e.Stats.Site,
			Executed:  e.Stats.Executed,
			Taken:     e.Stats.Taken,
			TakenRate: e.Stats.TakenRate,
			Entropy:   e.Stats.Entropy,
			MPKI:      e.Score,
		}
	}
	resp.Degraded = s.Degraded()
	s.m.h2pReport("profiles", resp.Sites, topScore(resp.Top), 0)
	writeJSON(w, http.StatusOK, resp)
}

// handleH2PTraced compiles the submitted program, runs it once with
// the full predictor zoo attached (or reads that run's replay from the
// engine's derived entries), and ranks its branches by minimum MPKI
// across schemes.
func (s *Server) handleH2PTraced(w http.ResponseWriter, r *http.Request) {
	var req h2pRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !nameRE.MatchString(req.Program) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("program name must match %s", nameRE))
		return
	}
	if req.Dataset != "" && !nameRE.MatchString(req.Dataset) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("dataset name must match %s", nameRE))
		return
	}
	if req.Source == "" || len(req.Source) > maxSourceLen {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("source is required and at most %d bytes", maxSourceLen))
		return
	}
	if len(req.Input) > maxInputLen {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("input exceeds %d bytes", maxInputLen))
		return
	}
	if req.N < 0 {
		writeError(w, http.StatusBadRequest, "n must be non-negative")
		return
	}
	n := req.N
	if n == 0 {
		n = 10
	}
	prog, err := s.eng.CompileContext(r.Context(), req.Program, req.Source, req.Options)
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}

	// Feed the static scheme from the program's stored profiles — the
	// paper's feedback loop — falling back to the loop heuristic when
	// nothing usable is accumulated.
	stored, err := s.storedProfiles(r.Context(), req.Program)
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}
	var train []*ifprob.Profile
	var trainedOn []string
	for _, sp := range stored {
		if sp.prof.Sites() == len(prog.Sites) {
			train = append(train, sp.prof)
			trainedOn = append(trainedOn, sp.dataset)
		}
	}
	pr, err := predict.Combine(train, predict.Scaled, prog.Sites, predict.LoopHeuristic)
	heuristicOnly := false
	if errors.Is(err, predict.ErrNoProfiles) {
		pr = predict.FromHeuristic(prog.Sites, predict.LoopHeuristic)
		heuristicOnly = true
		trainedOn = nil
	} else if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}

	fuel := req.Fuel
	if fuel == 0 || fuel > s.opts.MaxFuel {
		fuel = s.opts.MaxFuel
	}
	statics := []exp.StaticTable{{Name: "profile", Dirs: pr.TakenTable()}}
	label := "replay:" + req.Program + "/" + req.Dataset
	rp, err := exp.CachedReplay(r.Context(), s.eng, prog, label, []byte(req.Input), fuel, statics)
	s.feedEngineDiskHealth()
	if errors.Is(err, exp.ErrTracerContract) {
		// Predictors sized from the compiled program can only trip this
		// on an internal invariant violation — an honest 500.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err != nil {
		code, msg := classify(err)
		writeError(w, code, msg)
		return
	}

	resp := h2pTracedResponse{
		Program:       req.Program,
		Mode:          "traced",
		Dataset:       req.Dataset,
		TrainedOn:     trainedOn,
		HeuristicOnly: heuristicOnly,
		Sites:         len(prog.Sites),
		Instrs:        rp.Instrs(),
		Top:           rp.H2P(prog.Sites, n),
		Degraded:      s.Degraded(),
	}
	var top float64
	if len(resp.Top) > 0 {
		top = resp.Top[0].Score
	}
	s.m.h2pReport("traced", resp.Sites, top, resp.Instrs)
	// All scores are finite here, but route through the same non-finite-
	// safe encoder as /v1/predict so the contract cannot rot.
	data, err := exp.MarshalSafe(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck // client gone is not actionable
}

// topScore is the MPKI of the worst-ranked branch, for the gauge.
func topScore(top []h2pProfileSite) float64 {
	if len(top) == 0 {
		return 0
	}
	return top[0].MPKI
}
