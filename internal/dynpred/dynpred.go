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
//
// Every scheme also implements BlockTracer. Multi, which attaches
// many tracers to one run, buffers the run's events and hands each
// tracer whole blocks, which a scheme scores in one tight loop instead
// of one interface call per event. Each scheme's update rule is one
// small function that Branch and Block share, so the two entry points
// cannot drift apart.
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
// on false, and every Block kernel must route the events its own
// bounds check rejects through it, so the contract is identical across
// the zoo and its two entry points.
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

// tally books one admitted outcome in a block kernel's hoisted
// per-site counters, whose bounds the caller has checked, and returns
// it as a 0/1 mispredict count for the block's aggregate.
func tally(exec, miss []uint64, i int, wrong bool) uint64 {
	exec[i]++
	var w uint64
	if wrong {
		w = 1
	}
	miss[i] += w
	return w
}

// settle folds a block's admitted and mispredicted counts into the
// aggregates.
func (c *core) settle(n, m uint64) {
	c.executed += n
	c.mispredicts += m
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

// counter is the saturating 2-bit counter rule every counter-based
// scheme applies to its selected counter: >=2 predicts taken, then
// the counter trains toward the outcome.
func counter(s uint8, taken bool) (next uint8, miss bool) {
	return bump(s, taken), (s >= 2) != taken
}

// shift appends an outcome to a history register.
func shift(h uint32, taken bool) uint32 {
	h <<= 1
	if taken {
		h |= 1
	}
	return h
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

// oneBit is the 1-bit rule: predict the last direction, then remember
// this one.
func oneBit(last, taken bool) (next, miss bool) { return taken, last != taken }

// Branch implements vm.Tracer.
func (p *OneBit) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	var miss bool
	p.last[site], miss = oneBit(p.last[site], taken)
	p.record(site, miss)
}

// Block implements BlockTracer.
func (p *OneBit) Block(evs []vm.Event) {
	last := p.last
	exec, miss := p.siteExec[:len(last)], p.siteMiss[:len(last)]
	var n, m uint64
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(last)) {
			p.admit(e.Site)
			continue
		}
		var wrong bool
		last[i], wrong = oneBit(last[i], e.Taken())
		n, m = n+1, m+tally(exec, miss, i, wrong)
	}
	p.settle(n, m)
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
	var miss bool
	p.state[site], miss = counter(p.state[site], taken)
	p.record(site, miss)
}

// Block implements BlockTracer.
func (p *TwoBit) Block(evs []vm.Event) {
	state := p.state
	exec, miss := p.siteExec[:len(state)], p.siteMiss[:len(state)]
	var n, m uint64
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(state)) {
			p.admit(e.Site)
			continue
		}
		var wrong bool
		state[i], wrong = counter(state[i], e.Taken())
		n, m = n+1, m+tally(exec, miss, i, wrong)
	}
	p.settle(n, m)
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

// Block implements BlockTracer.
func (p *Static) Block(evs []vm.Event) {
	dirs := p.dirs
	exec, miss := p.siteExec[:len(dirs)], p.siteMiss[:len(dirs)]
	var n, m uint64
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(dirs)) {
			p.admit(e.Site)
			continue
		}
		n, m = n+1, m+tally(exec, miss, i, dirs[i] != e.Taken())
	}
	p.settle(n, m)
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

// twoLevel is the two-level rule: the site's masked history selects
// the pattern counter that predicts and trains, then the outcome
// shifts into the history.
func twoLevel(hist uint32, pattern []uint8, mask uint32, taken bool) (next uint32, miss bool) {
	h := hist & mask
	pattern[h], miss = counter(pattern[h], taken)
	return shift(hist, taken), miss
}

// Branch implements vm.Tracer.
func (p *TwoLevel) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	var miss bool
	p.hist[site], miss = twoLevel(p.hist[site], p.pattern, p.mask, taken)
	p.record(site, miss)
}

// Block implements BlockTracer.
func (p *TwoLevel) Block(evs []vm.Event) {
	hist, pattern, mask := p.hist, p.pattern, p.mask
	exec, miss := p.siteExec[:len(hist)], p.siteMiss[:len(hist)]
	var n, m uint64
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(hist)) {
			p.admit(e.Site)
			continue
		}
		var wrong bool
		hist[i], wrong = twoLevel(hist[i], pattern, mask, e.Taken())
		n, m = n+1, m+tally(exec, miss, i, wrong)
	}
	p.settle(n, m)
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

// gshare is the gshare rule: global history XOR site selects the
// counter that predicts and trains, then the outcome shifts into the
// global history.
func gshare(ghr uint32, table []uint8, mask uint32, site int32, taken bool) (next uint32, miss bool) {
	idx := (uint32(site) ^ ghr) & mask
	table[idx], miss = counter(table[idx], taken)
	return shift(ghr, taken) & mask, miss
}

// Branch implements vm.Tracer.
func (p *GShare) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	var miss bool
	p.ghr, miss = gshare(p.ghr, p.table, p.mask, site, taken)
	p.record(site, miss)
}

// Block implements BlockTracer.
func (p *GShare) Block(evs []vm.Event) {
	ghr, table, mask := p.ghr, p.table, p.mask
	exec, miss := p.siteExec, p.siteMiss[:len(p.siteExec)]
	var n, m uint64
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(exec)) {
			p.admit(e.Site)
			continue
		}
		var wrong bool
		ghr, wrong = gshare(ghr, table, mask, e.Site, e.Taken())
		n, m = n+1, m+tally(exec, miss, i, wrong)
	}
	p.ghr = ghr
	p.settle(n, m)
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
	ghr    uint32
	choice []uint8 // first level: per-site bank selection
	// banks are the direction banks, not-taken-biased then
	// taken-biased, so a choice counter c selects banks[c>>1].
	banks  [2][]uint8
	mask   uint32 // direction-bank index mask
	chMask uint32 // choice-table index mask
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
	p.banks = [2][]uint8{make([]uint8, 1<<bits), make([]uint8, 1<<bits)}
	for i := range p.choice {
		p.choice[i] = 1 // weakly select the not-taken bank
	}
	for i := range p.banks[0] {
		p.banks[0][i] = 1 // the banks start at their bias
		p.banks[1][i] = 2
	}
	return p
}

// counters returns the site's choice counter and the direction
// counter it selects, at global history XOR site in the chosen bank.
func (p *BiMode) counters(ghr uint32, site int32) (ctr, choice *uint8) {
	choice = &p.choice[uint32(site)&p.chMask]
	return &p.banks[*choice>>1][(uint32(site)^ghr)&p.mask], choice
}

// biMode is the Bi-Mode rule on the selected direction counter and
// the choice counter that selected it. The direction counter predicts,
// and only it trains, preserving the banks' biases. The choice counter
// trains toward the outcome, except when the selected bank was right
// while the choice direction disagreed with the outcome — overriding
// a correct bank choice would un-learn a working assignment.
func biMode(ctr, choice uint8, taken bool) (nextCtr, nextChoice uint8, miss bool) {
	pred := ctr >= 2
	if pred != taken || (choice >= 2) == taken {
		choice = bump(choice, taken)
	}
	return bump(ctr, taken), choice, pred != taken
}

// Branch implements vm.Tracer.
func (p *BiMode) Branch(site int32, taken bool, _ uint64) {
	if !p.admit(site) {
		return
	}
	ctr, choice := p.counters(p.ghr, site)
	var miss bool
	*ctr, *choice, miss = biMode(*ctr, *choice, taken)
	p.ghr = shift(p.ghr, taken) & p.mask
	p.record(site, miss)
}

// Block implements BlockTracer.
func (p *BiMode) Block(evs []vm.Event) {
	ghr := p.ghr
	exec, miss := p.siteExec, p.siteMiss[:len(p.siteExec)]
	var n, m uint64
	for _, e := range evs {
		if !e.IsBranch() {
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(exec)) {
			p.admit(e.Site)
			continue
		}
		ctr, choice := p.counters(ghr, e.Site)
		var wrong bool
		*ctr, *choice, wrong = biMode(*ctr, *choice, e.Taken())
		ghr = shift(ghr, e.Taken()) & p.mask
		n, m = n+1, m+tally(exec, miss, i, wrong)
	}
	p.ghr = ghr
	p.settle(n, m)
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

// BlockTracer is a tracer that can also consume a block of events in
// one call, in stream order. Block(evs) must leave the tracer in
// exactly the state the same events delivered one at a time through
// Branch and Transfer would; evs is only valid for the duration of the
// call.
type BlockTracer interface {
	vm.Tracer
	Block(evs []vm.Event)
}

// BlockSize is how many events Multi buffers before delivering them.
const BlockSize = 4096

// Multi fans one event stream out to several tracers so a single
// (expensive) VM run measures every scheme at once.
//
// Multi does not forward each event as it arrives. Branch and Transfer
// append it to a block of up to BlockSize events; when the block is
// full, every predictor and then every Extra tracer takes the whole
// block in turn, through Block when it is a BlockTracer and one event
// at a time through Branch and Transfer otherwise. The consumers
// are independent: each sees every event in stream order, and none
// observes another, so the final state of each is exactly what it
// reaches attached alone.
//
// The last, partial block is delivered by Flush. Image.Run and
// RunInterpreter call it when a run ends (Multi is a vm.Flusher), so a
// Multi attached through vm.Config needs nothing more. A caller that
// drives Multi by hand must call Flush before reading any consumer.
type Multi struct {
	Predictors []Predictor
	// Extra tracers (e.g. a runlength recorder) observing the same
	// stream without being predictors.
	Extra []vm.Tracer

	block []vm.Event // buffered events not yet delivered
}

// Branch implements vm.Tracer.
func (m *Multi) Branch(site int32, taken bool, instrs uint64) {
	m.push(vm.BranchEvent(site, taken, instrs))
}

// Transfer implements vm.Tracer.
func (m *Multi) Transfer(kind vm.TransferKind, instrs uint64) {
	m.push(vm.TransferEvent(kind, instrs))
}

func (m *Multi) push(e vm.Event) {
	if len(m.block) == cap(m.block) {
		m.deliver()
	}
	m.block = append(m.block, e)
}

// Flush implements vm.Flusher: it delivers the buffered events, then
// flushes every consumer that is itself a vm.Flusher, as the VM would
// have flushed it attached alone.
func (m *Multi) Flush() {
	if len(m.block) > 0 {
		m.deliver()
	}
	for _, p := range m.Predictors {
		flush(p)
	}
	for _, t := range m.Extra {
		flush(t)
	}
}

// deliver hands the buffered block to every consumer and empties it,
// allocating the block on first use.
func (m *Multi) deliver() {
	evs := m.block
	if cap(evs) == 0 {
		m.block = make([]vm.Event, 0, BlockSize)
		return
	}
	// Empty the buffer first, so a consumer that panics mid-block is not
	// handed the same events again by the Flush that unwinds the run.
	m.block = evs[:0]
	for _, p := range m.Predictors {
		deliverTo(p, evs)
	}
	for _, t := range m.Extra {
		deliverTo(t, evs)
	}
}

func deliverTo(t vm.Tracer, evs []vm.Event) {
	if b, ok := t.(BlockTracer); ok {
		b.Block(evs)
		return
	}
	replay(t, evs)
}

// replay delivers evs to t one event at a time.
func replay(t vm.Tracer, evs []vm.Event) {
	for _, e := range evs {
		if e.IsBranch() {
			t.Branch(e.Site, e.Taken(), e.Instrs)
		} else {
			t.Transfer(e.Transfer(), e.Instrs)
		}
	}
}

func flush(t vm.Tracer) {
	if f, ok := t.(vm.Flusher); ok {
		f.Flush()
	}
}

// Err returns the first structured error any fanned-out predictor
// accumulated, then the first Extra tracer that counted out-of-range
// sites (any Extra with an OutOfRange() uint64 method, such as the
// runlength recorders), or nil. Callers attaching a Multi must check
// it after the run, exactly as they would a single predictor's Err;
// callers driving it by hand must Flush first.
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
