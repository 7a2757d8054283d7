package runlength

import (
	"math"

	"branchprof/internal/vm"
)

// SiteRecorder implements vm.Tracer, accumulating per-static-branch
// outcome statistics from one run: how often each site executed and
// was taken, and the distribution of same-outcome runs (how many
// consecutive executions went the same way before flipping). These
// are the workload-characterization axes of the H2P methodology —
// a branch with near-0.5 taken rate, high outcome entropy and short
// same-outcome runs is structurally hard for any per-site scheme.
type SiteRecorder struct {
	sites []siteState
	oob   uint64 // branch events with out-of-range site ids (skipped)
}

// siteState is one static branch's running statistics.
type siteState struct {
	taken, total uint64
	runLen       uint64 // current same-outcome run length
	runCount     uint64 // completed + open runs
	maxRun       uint64
	runDir       bool // current same-outcome run direction
}

// observe books one execution of the branch.
func (st *siteState) observe(taken bool) {
	st.total++
	if taken {
		st.taken++
	}
	if st.runLen == 0 || st.runDir != taken {
		// First execution, or a direction flip: a new run opens.
		st.runDir = taken
		st.runLen = 1
		st.runCount++
	} else {
		st.runLen++
	}
	st.maxRun = max(st.maxRun, st.runLen)
}

// NewSites returns a per-branch recorder for a program with sites
// static branches.
func NewSites(sites int) *SiteRecorder {
	return &SiteRecorder{sites: make([]siteState, max(sites, 0))}
}

// Branch implements vm.Tracer. Out-of-range sites are counted on
// OutOfRange and otherwise ignored, matching the dynpred contract.
func (s *SiteRecorder) Branch(site int32, taken bool, _ uint64) {
	if site < 0 || int(site) >= len(s.sites) {
		s.oob++
		return
	}
	s.sites[site].observe(taken)
}

// Transfer implements vm.Tracer (ignored).
func (s *SiteRecorder) Transfer(vm.TransferKind, uint64) {}

// Block implements dynpred.BlockTracer with the same rule as Branch.
func (s *SiteRecorder) Block(evs []vm.Event) {
	sites := s.sites
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(sites)) {
			s.oob++
			continue
		}
		sites[i].observe(e.Taken())
	}
}

// OutOfRange returns how many branch events carried a site id outside
// the recorder's tables (program/recorder shape mismatch).
func (s *SiteRecorder) OutOfRange() uint64 { return s.oob }

// SiteStats summarizes one static branch's outcome behaviour.
type SiteStats struct {
	Site     int
	Executed uint64
	Taken    uint64
	// TakenRate is Taken/Executed in [0,1] (0 for a never-executed site).
	TakenRate float64
	// Entropy is the Shannon entropy of the outcome in bits: 0 for a
	// branch that always goes one way, 1 for a 50/50 branch.
	Entropy float64
	// Runs counts maximal same-outcome runs; MeanRun and MaxRun
	// describe their lengths. A loop back-edge has few long runs; a
	// data-dependent test flips constantly (MeanRun near 1).
	Runs    uint64
	MeanRun float64
	MaxRun  uint64
}

// Stats summarizes every site, indexed by site id.
func (s *SiteRecorder) Stats() []SiteStats {
	out := make([]SiteStats, len(s.sites))
	for i, site := range s.sites {
		st := Outcome(i, site.taken, site.total)
		st.Runs, st.MaxRun = site.runCount, site.maxRun
		if st.Runs > 0 {
			st.MeanRun = float64(st.Executed) / float64(st.Runs)
		}
		out[i] = st
	}
	return out
}

// Outcome summarizes a site from its outcome counts alone (taken of
// total executions), with no run statistics: all a stored profile
// records of the site.
func Outcome(site int, taken, total uint64) SiteStats {
	st := SiteStats{Site: site, Executed: total, Taken: taken, Entropy: Entropy(taken, total)}
	if total > 0 {
		st.TakenRate = float64(taken) / float64(total)
	}
	return st
}

// Entropy is the Shannon entropy, in bits, of a branch outcome with
// taken of total executions taken: 0 when the branch always goes one
// way (or never executes), 1 at 50/50. It is also computable from a
// stored profile, which is how branchprofd characterizes branches
// without re-running the program.
func Entropy(taken, total uint64) float64 {
	if total == 0 || taken == 0 || taken == total {
		return 0
	}
	p := float64(taken) / float64(total)
	q := 1 - p
	return -p*math.Log2(p) - q*math.Log2(q)
}
