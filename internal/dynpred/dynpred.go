// Package dynpred simulates the hardware dynamic branch predictors
// the paper contrasts with static prediction: "dynamic methods
// usually involve attaching 1 or 2 bits to each branch and setting or
// incrementing those bits, as the program runs, to reflect the
// direction the branch most recently went in."
//
// The predictors implement vm.Tracer, so attaching one to a run
// measures its misprediction behaviour on exactly the branch stream
// the static predictors are evaluated against. Beyond the paper's
// 1-/2-bit schemes of [Smith 81], the zoo carries the history-based
// predictors the 1992 paper predates — two-level adaptive
// [Lee and Smith 84 / Yeh and Patt 91], gshare [McFarling 93] and
// Bi-Mode [Lee, Chen and Mudge 97] — so the reproduction can
// characterize which branches stay hard once history is available.
//
// Every scheme shares one tracer contract: branch events whose site
// id falls outside the predictor's tables (a tracer attached with a
// stale site count after a recompile) are never indexed — they are
// counted and surfaced as a structured *SiteRangeError from Err()
// instead of panicking the run — and every scheme attributes its
// mispredicts per site, which the H2P characterization lane consumes.
package dynpred

import (
	"fmt"

	"branchprof/internal/vm"
)

// Predictor is a dynamic branch predictor simulated over a run.
type Predictor interface {
	vm.Tracer
	// Name identifies the scheme in reports.
	Name() string
	// Executed returns the number of conditional branches seen (and
	// admitted: out-of-range sites are excluded, see Err).
	Executed() uint64
	// Mispredicts returns how many were predicted wrongly.
	Mispredicts() uint64
	// SiteExecuted returns per-site executed counts, indexed by static
	// branch site id. The slice is live; callers must not mutate it.
	SiteExecuted() []uint64
	// SiteMispredicts returns per-site mispredict counts, indexed by
	// static branch site id. The slice is live; callers must not
	// mutate it.
	SiteMispredicts() []uint64
	// Err reports structured trouble observed while tracing — today a
	// *SiteRangeError when any branch event carried a site id outside
	// the predictor's tables (program and predictor compiled from
	// different sources). Callers must check it after every traced
	// run; counters exclude the rejected events.
	Err() error
}

// SiteRangeError reports branch events whose site id fell outside the
// predictor's tables: the tracer was attached with a stale site count
// (the program was recompiled, or a profile/program pair mismatches).
// The predictor skips such events rather than indexing out of bounds;
// Count says how many were skipped and First which site arrived first.
type SiteRangeError struct {
	Scheme string // predictor name
	Sites  int    // table size the predictor was built for
	First  int32  // first out-of-range site id observed
	Count  uint64 // total out-of-range events skipped
}

// Error implements error.
func (e *SiteRangeError) Error() string {
	return fmt.Sprintf("dynpred: %s predictor sized for %d sites saw %d event(s) at out-of-range site(s) (first: %d); program and predictor disagree on the compiled shape",
		e.Scheme, e.Sites, e.Count, e.First)
}

// core carries the bookkeeping every scheme shares: aggregate and
// per-site executed/mispredict counters, and the bounds guard that
// turns a stale site id into a structured error instead of a panic.
type core struct {
	name        string
	sites       int
	executed    uint64
	mispredicts uint64
	siteExec    []uint64
	siteMiss    []uint64
	oob         *SiteRangeError
}

func newCore(name string, sites int) core {
	if sites < 0 {
		sites = 0
	}
	return core{
		name:     name,
		sites:    sites,
		siteExec: make([]uint64, sites),
		siteMiss: make([]uint64, sites),
	}
}

// admit bounds-checks a site id, recording rejects on the error
// surface. Every scheme's Branch must call it first and return early
// on false, so the contract is identical across the zoo.
func (c *core) admit(site int32) bool {
	if site >= 0 && int(site) < c.sites {
		return true
	}
	if c.oob == nil {
		c.oob = &SiteRangeError{Scheme: c.name, Sites: c.sites, First: site}
	}
	c.oob.Count++
	return false
}

// record books one admitted branch outcome.
func (c *core) record(site int32, miss bool) {
	c.executed++
	c.siteExec[site]++
	if miss {
		c.mispredicts++
		c.siteMiss[site]++
	}
}

// Name implements Predictor.
func (c *core) Name() string { return c.name }

// Executed implements Predictor.
func (c *core) Executed() uint64 { return c.executed }

// Mispredicts implements Predictor.
func (c *core) Mispredicts() uint64 { return c.mispredicts }

// SiteExecuted implements Predictor.
func (c *core) SiteExecuted() []uint64 { return c.siteExec }

// SiteMispredicts implements Predictor.
func (c *core) SiteMispredicts() []uint64 { return c.siteMiss }

// Err implements Predictor.
func (c *core) Err() error {
	if c.oob == nil {
		return nil
	}
	return c.oob
}

// Transfer implements vm.Tracer (every scheme here ignores non-branch
// transfers).
func (c *core) Transfer(vm.TransferKind, uint64) {}

// bump saturates a 2-bit counter toward the outcome.
func bump(s uint8, taken bool) uint8 {
	if taken {
		if s < 3 {
			return s + 1
		}
		return s
	}
	if s > 0 {
		return s - 1
	}
	return s
}

// OneBit is the classic last-direction predictor: one bit per static
// branch, predicting the direction the branch went last time. Initial
// prediction is not-taken.
type OneBit struct {
	core
	last []bool
}

// NewOneBit returns a one-bit predictor for a program with sites
// static branches.
func NewOneBit(sites int) *OneBit {
	p := &OneBit{core: newCore("1-bit", sites)}
	p.last = make([]bool, p.sites)
	return p
}

// Branch implements vm.Tracer.
func (p *OneBit) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	p.record(site, p.last[site] != taken)
	p.last[site] = taken
}

// TwoBit is the saturating two-bit counter predictor [Smith 81]: per
// static branch a counter in [0,3]; >=2 predicts taken; taken
// increments, not-taken decrements, saturating. Counters start at 1
// (weakly not-taken).
type TwoBit struct {
	core
	state []uint8
}

// NewTwoBit returns a two-bit predictor for sites static branches.
func NewTwoBit(sites int) *TwoBit {
	p := &TwoBit{core: newCore("2-bit", sites)}
	p.state = make([]uint8, p.sites)
	for i := range p.state {
		p.state[i] = 1
	}
	return p
}

// Branch implements vm.Tracer.
func (p *TwoBit) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	s := p.state[site]
	p.record(site, (s >= 2) != taken)
	p.state[site] = bump(s, taken)
}

// Static adapts a fixed per-site direction table to the Predictor
// interface so static and dynamic schemes can be measured by the same
// machinery. dirs[i] is true when site i is predicted taken.
type Static struct {
	core
	dirs []bool
}

// NewStatic wraps a direction table.
func NewStatic(name string, dirs []bool) *Static {
	return &Static{core: newCore(name, len(dirs)), dirs: dirs}
}

// Branch implements vm.Tracer.
func (p *Static) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	p.record(site, p.dirs[site] != taken)
}

// DefaultHistoryBits is the history register length the zoo's
// history-based schemes default to. 12 bits (4096-entry tables) is
// far beyond the working set of any workload analogue here, so the
// measured mispredicts reflect the scheme, not table pressure.
const DefaultHistoryBits = 12

// clampBits normalizes a history/table width to [1,20].
func clampBits(bits int) int {
	if bits <= 0 {
		return DefaultHistoryBits
	}
	if bits > 20 {
		return 20
	}
	return bits
}

// TwoLevel is the per-address two-level adaptive predictor
// [Lee and Smith 84 / Yeh and Patt's PAg]: each static branch keeps
// its own history register of the branch's last historyBits outcomes,
// which indexes one shared pattern table of saturating 2-bit
// counters. Loop exits and short repeating patterns become perfectly
// predictable once the history distinguishes them.
type TwoLevel struct {
	core
	hist    []uint32 // per-site branch history registers
	pattern []uint8  // shared second-level 2-bit counters
	mask    uint32
}

// NewTwoLevel returns a two-level adaptive predictor for sites static
// branches with historyBits of per-branch history (<=0 selects
// DefaultHistoryBits).
func NewTwoLevel(sites, historyBits int) *TwoLevel {
	bits := clampBits(historyBits)
	p := &TwoLevel{core: newCore("two-level", sites), mask: 1<<bits - 1}
	p.hist = make([]uint32, p.sites)
	p.pattern = make([]uint8, 1<<bits)
	for i := range p.pattern {
		p.pattern[i] = 1 // weakly not-taken, like TwoBit
	}
	return p
}

// Branch implements vm.Tracer.
func (p *TwoLevel) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	h := p.hist[site] & p.mask
	s := p.pattern[h]
	p.record(site, (s >= 2) != taken)
	p.pattern[h] = bump(s, taken)
	p.hist[site] = p.hist[site] << 1
	if taken {
		p.hist[site] |= 1
	}
}

// GShare is McFarling's global-history predictor: one global shift
// register of the last historyBits branch outcomes, XORed with the
// branch site to index a table of 2-bit counters. The XOR folds the
// branch identity into the history so correlated branches — one
// branch's outcome deciding another's — predict each other.
type GShare struct {
	core
	ghr   uint32
	table []uint8
	mask  uint32
}

// NewGShare returns a gshare predictor for sites static branches with
// a historyBits global register (<=0 selects DefaultHistoryBits).
func NewGShare(sites, historyBits int) *GShare {
	bits := clampBits(historyBits)
	p := &GShare{core: newCore("gshare", sites), mask: 1<<bits - 1}
	p.table = make([]uint8, 1<<bits)
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

// Branch implements vm.Tracer.
func (p *GShare) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	idx := (uint32(site) ^ p.ghr) & p.mask
	s := p.table[idx]
	p.record(site, (s >= 2) != taken)
	p.table[idx] = bump(s, taken)
	p.ghr = p.ghr << 1
	if taken {
		p.ghr |= 1
	}
	p.ghr &= p.mask
}

// BiMode is the Bi-Mode predictor [Lee, Chen and Mudge 97], the
// architecture of the ChampSim exemplar: the second-level table is
// split into a taken-biased and a not-taken-biased direction table,
// both indexed by global-history XOR site, with a per-site choice
// table of 2-bit counters selecting which bank predicts. Splitting by
// bias keeps a branch's dominant direction from being destructively
// aliased by branches biased the other way.
type BiMode struct {
	core
	ghr     uint32
	choice  []uint8 // first level: per-site bank selection
	takenT  []uint8 // taken-biased direction bank
	ntakenT []uint8 // not-taken-biased direction bank
	mask    uint32  // direction-bank index mask
	chMask  uint32  // choice-table index mask
}

// NewBiMode returns a Bi-Mode predictor for sites static branches.
// historyBits sizes the direction banks, choiceBits the choice table
// (<=0 selects DefaultHistoryBits for either).
func NewBiMode(sites, historyBits, choiceBits int) *BiMode {
	bits := clampBits(historyBits)
	cbits := clampBits(choiceBits)
	p := &BiMode{
		core:   newCore("bimode", sites),
		mask:   1<<bits - 1,
		chMask: 1<<cbits - 1,
	}
	p.choice = make([]uint8, 1<<cbits)
	p.takenT = make([]uint8, 1<<bits)
	p.ntakenT = make([]uint8, 1<<bits)
	for i := range p.choice {
		p.choice[i] = 1 // weakly select the not-taken bank
	}
	for i := range p.takenT {
		p.takenT[i] = 2 // the banks start at their bias
		p.ntakenT[i] = 1
	}
	return p
}

// Branch implements vm.Tracer.
func (p *BiMode) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	idx := (uint32(site) ^ p.ghr) & p.mask
	ci := uint32(site) & p.chMask
	chooseTaken := p.choice[ci] >= 2
	bank := p.ntakenT
	if chooseTaken {
		bank = p.takenT
	}
	pred := bank[idx] >= 2
	p.record(site, pred != taken)
	// Only the selected bank trains, preserving the banks' biases.
	bank[idx] = bump(bank[idx], taken)
	// The choice table trains toward the outcome, except when the
	// selected bank was right while the choice direction disagreed
	// with the outcome — overriding a correct bank choice would
	// un-learn a working assignment (the Bi-Mode update rule).
	if !(pred == taken && chooseTaken != taken) {
		p.choice[ci] = bump(p.choice[ci], taken)
	}
	p.ghr = p.ghr << 1
	if taken {
		p.ghr |= 1
	}
	p.ghr &= p.mask
}

// Zoo returns one fresh instance of every dynamic scheme at default
// sizing, in report order: 1-bit, 2-bit, two-level, gshare, bimode.
// Experiments attach the whole zoo via Multi so one VM run measures
// every scheme on the identical branch stream.
func Zoo(sites int) []Predictor {
	return []Predictor{
		NewOneBit(sites),
		NewTwoBit(sites),
		NewTwoLevel(sites, DefaultHistoryBits),
		NewGShare(sites, DefaultHistoryBits),
		NewBiMode(sites, DefaultHistoryBits, DefaultHistoryBits),
	}
}

// Multi fans one branch stream out to several predictors so a single
// (expensive) VM run measures every scheme at once.
type Multi struct {
	Predictors []Predictor
	// Extra tracers (e.g. a runlength recorder) observing the same
	// stream without being predictors.
	Extra []vm.Tracer
}

// Branch implements vm.Tracer.
func (m *Multi) Branch(site int32, taken bool, instrs uint64) {
	for _, p := range m.Predictors {
		p.Branch(site, taken, instrs)
	}
	for _, t := range m.Extra {
		t.Branch(site, taken, instrs)
	}
}

// Transfer implements vm.Tracer.
func (m *Multi) Transfer(kind vm.TransferKind, instrs uint64) {
	for _, p := range m.Predictors {
		p.Transfer(kind, instrs)
	}
	for _, t := range m.Extra {
		t.Transfer(kind, instrs)
	}
}

// Err returns the first structured error any fanned-out predictor
// accumulated, then the first Extra tracer that counted out-of-range
// sites (any Extra with an OutOfRange() uint64 method, such as the
// runlength recorders), or nil. Callers attaching a Multi must check
// it after the run, exactly as they would a single predictor's Err.
func (m *Multi) Err() error {
	for _, p := range m.Predictors {
		if err := p.Err(); err != nil {
			return err
		}
	}
	for _, t := range m.Extra {
		if r, ok := t.(interface{ OutOfRange() uint64 }); ok && r.OutOfRange() > 0 {
			return fmt.Errorf("dynpred: %T tracer saw %d event(s) at out-of-range site(s); program and tracer disagree on the compiled shape",
				t, r.OutOfRange())
		}
	}
	return nil
}
