// Package predict implements the paper's static branch predictors and
// their evaluation.
//
// A predictor attaches one direction to each static conditional
// branch at compile time. The paper compares:
//
//   - Self: the target run predicts itself — the best any static
//     predictor can do, since every branch is predicted in its
//     majority direction;
//   - a single other dataset's profile;
//   - combined predictors over all other datasets: Unscaled (add raw
//     counts), Scaled (give each dataset equal total weight — the one
//     the paper reports), and Polling (one vote per dataset, which
//     the paper discarded as poor);
//   - naive heuristics (the "loop vs non-loop" distinction), the
//     compiler's default when no feedback exists.
package predict

import (
	"fmt"

	"branchprof/internal/ifprob"
	"branchprof/internal/isa"
)

// Direction is a predicted branch direction.
type Direction uint8

// Directions.
const (
	NotTaken Direction = iota
	Taken
)

// String returns "taken" or "not-taken".
func (d Direction) String() string {
	if d == Taken {
		return "taken"
	}
	return "not-taken"
}

// Heuristic predicts a direction from static branch properties alone.
type Heuristic func(isa.BranchSite) Direction

// LoopHeuristic predicts loop back edges taken and everything else
// not taken — the paper's "very simple heuristics, distinguishing
// between loops and nonloops".
func LoopHeuristic(s isa.BranchSite) Direction {
	if s.LoopBack {
		return Taken
	}
	return NotTaken
}

// AlwaysTaken predicts every branch taken (a classic opcode-free
// hardware default, included as a baseline).
func AlwaysTaken(isa.BranchSite) Direction { return Taken }

// AlwaysNotTaken predicts every branch not taken.
func AlwaysNotTaken(isa.BranchSite) Direction { return NotTaken }

// Prediction assigns a direction to every static branch site.
type Prediction struct {
	Dir []Direction
	// FromProfile[i] is true when site i's direction came from
	// profile data rather than the fallback heuristic.
	FromProfile []bool
}

// Sites returns the number of sites covered.
func (p *Prediction) Sites() int { return len(p.Dir) }

// TakenTable returns the prediction as a per-site predicted-taken
// table, the form the tracers (dynpred.NewStatic, runlength.New)
// consume.
func (p *Prediction) TakenTable() []bool {
	dirs := make([]bool, len(p.Dir))
	for i, d := range p.Dir {
		dirs[i] = d == Taken
	}
	return dirs
}

// Table is a weighted branch-count table, the common form to which
// every profile combination reduces before directions are extracted.
type Table struct {
	TakenW []float64
	TotalW []float64
}

// NewTable returns an empty table for n sites.
func NewTable(n int) *Table {
	return &Table{TakenW: make([]float64, n), TotalW: make([]float64, n)}
}

// ErrNoProfiles reports a predictor asked to combine an empty (or
// all-nil, on a degraded suite) profile set.
var ErrNoProfiles = fmt.Errorf("predict: no profiles to combine")

// AddProfile accumulates a profile with the given weight.
func (t *Table) AddProfile(p *ifprob.Profile, weight float64) error {
	if p == nil {
		return fmt.Errorf("predict: nil profile")
	}
	if len(p.Total) != len(t.TotalW) {
		return fmt.Errorf("predict: profile has %d sites, table has %d", len(p.Total), len(t.TotalW))
	}
	for i := range p.Total {
		t.TakenW[i] += weight * float64(p.Taken[i])
		t.TotalW[i] += weight * float64(p.Total[i])
	}
	return nil
}

// FromTable extracts per-site directions, using sites (for the
// fallback heuristic) where the table has no data. A site whose
// weighted taken count is at least half its weighted total is
// predicted taken.
func FromTable(t *Table, sites []isa.BranchSite, fallback Heuristic) (*Prediction, error) {
	if len(sites) != len(t.TotalW) {
		return nil, fmt.Errorf("predict: table has %d sites, program has %d", len(t.TotalW), len(sites))
	}
	if fallback == nil {
		fallback = LoopHeuristic
	}
	pr := &Prediction{
		Dir:         make([]Direction, len(sites)),
		FromProfile: make([]bool, len(sites)),
	}
	for i := range sites {
		if t.TotalW[i] > 0 {
			pr.FromProfile[i] = true
			if t.TakenW[i]*2 >= t.TotalW[i] {
				pr.Dir[i] = Taken
			}
		} else {
			pr.Dir[i] = fallback(sites[i])
		}
	}
	return pr, nil
}

// FromProfile builds a prediction from a single profile (including
// the self/oracle case, where the profile comes from the target run
// itself).
func FromProfile(p *ifprob.Profile, sites []isa.BranchSite, fallback Heuristic) (*Prediction, error) {
	if p == nil {
		return nil, fmt.Errorf("predict: nil profile")
	}
	t := NewTable(len(p.Total))
	if err := t.AddProfile(p, 1); err != nil {
		return nil, err
	}
	return FromTable(t, sites, fallback)
}

// FromHeuristic builds a prediction with no profile data at all.
func FromHeuristic(sites []isa.BranchSite, h Heuristic) *Prediction {
	if h == nil {
		h = LoopHeuristic
	}
	pr := &Prediction{
		Dir:         make([]Direction, len(sites)),
		FromProfile: make([]bool, len(sites)),
	}
	for i, s := range sites {
		pr.Dir[i] = h(s)
	}
	return pr
}

// CombineMode selects how multiple predictor datasets are merged.
type CombineMode uint8

// Combination strategies from the paper's "scaled vs unscaled summary
// predictors" discussion.
const (
	// Unscaled adds raw counts: long runs dominate.
	Unscaled CombineMode = iota
	// Scaled divides each dataset's counts by its total executed
	// branches, giving every dataset equal weight. This is what the
	// paper reports.
	Scaled
	// Polling gives each dataset one vote per site regardless of
	// counts. The paper found it poor and discarded it.
	Polling
)

// String names the mode.
func (m CombineMode) String() string {
	switch m {
	case Unscaled:
		return "unscaled"
	case Scaled:
		return "scaled"
	case Polling:
		return "polling"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Combine merges the given profiles under the mode and extracts a
// prediction. Nil entries — holes a degraded suite may hand over —
// are skipped; an empty or all-nil set returns ErrNoProfiles.
func Combine(profiles []*ifprob.Profile, mode CombineMode, sites []isa.BranchSite, fallback Heuristic) (*Prediction, error) {
	live := profiles[:0:0]
	for _, p := range profiles {
		if p != nil {
			live = append(live, p)
		}
	}
	profiles = live
	if len(profiles) == 0 {
		return nil, ErrNoProfiles
	}
	t := NewTable(profiles[0].Sites())
	for _, p := range profiles {
		var w float64
		switch mode {
		case Unscaled:
			w = 1
		case Scaled:
			ex := p.Executed()
			if ex == 0 {
				continue
			}
			w = 1 / float64(ex)
		case Polling:
			// One vote per dataset per site: weight each site's
			// contribution to ±1 by majority.
			if len(p.Total) != len(t.TotalW) {
				return nil, fmt.Errorf("predict: profile has %d sites, table has %d", len(p.Total), len(t.TotalW))
			}
			for i := range p.Total {
				if p.Total[i] == 0 {
					continue
				}
				t.TotalW[i] += 1
				if p.Taken[i]*2 >= p.Total[i] {
					t.TakenW[i] += 1
				}
			}
			continue
		default:
			return nil, fmt.Errorf("predict: unknown combine mode %v", mode)
		}
		if err := t.AddProfile(p, w); err != nil {
			return nil, err
		}
	}
	return FromTable(t, sites, fallback)
}

// Eval is the outcome of measuring a prediction against a target
// run's actual branch behaviour.
type Eval struct {
	Executed    uint64 // conditional branches executed by the target
	Mispredicts uint64
}

// Correct returns the correctly predicted branch count.
func (e Eval) Correct() uint64 { return e.Executed - e.Mispredicts }

// PercentCorrect is the traditional measure the paper argues is
// inadequate, in [0,1].
func (e Eval) PercentCorrect() float64 {
	if e.Executed == 0 {
		return 1
	}
	return float64(e.Correct()) / float64(e.Executed)
}

// Evaluate counts how many of the target run's branches the
// prediction gets wrong. Each site's mispredicts are the executions
// that went against the predicted direction.
func Evaluate(pr *Prediction, target *ifprob.Profile) (Eval, error) {
	if pr == nil || target == nil {
		return Eval{}, fmt.Errorf("predict: nil prediction or target")
	}
	if len(pr.Dir) != len(target.Total) {
		return Eval{}, fmt.Errorf("predict: prediction covers %d sites, target has %d", len(pr.Dir), len(target.Total))
	}
	var ev Eval
	for i := range target.Total {
		ev.Executed += target.Total[i]
		if pr.Dir[i] == Taken {
			ev.Mispredicts += target.Total[i] - target.Taken[i]
		} else {
			ev.Mispredicts += target.Taken[i]
		}
	}
	return ev, nil
}

// SiteEval is a per-site breakdown entry.
type SiteEval struct {
	Site        isa.BranchSite
	Dir         Direction
	Executed    uint64
	Mispredicts uint64
}

// EvaluatePerSite returns the per-site breakdown, useful for finding
// the branches responsible for poor cross-dataset prediction.
func EvaluatePerSite(pr *Prediction, target *ifprob.Profile, sites []isa.BranchSite) ([]SiteEval, error) {
	if pr == nil || target == nil {
		return nil, fmt.Errorf("predict: nil prediction or target")
	}
	if len(pr.Dir) != len(target.Total) || len(sites) != len(target.Total) {
		return nil, fmt.Errorf("predict: site count mismatch")
	}
	out := make([]SiteEval, len(sites))
	for i := range sites {
		se := SiteEval{Site: sites[i], Dir: pr.Dir[i], Executed: target.Total[i]}
		if pr.Dir[i] == Taken {
			se.Mispredicts = target.Total[i] - target.Taken[i]
		} else {
			se.Mispredicts = target.Taken[i]
		}
		out[i] = se
	}
	return out, nil
}
