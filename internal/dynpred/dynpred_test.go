package dynpred

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"branchprof/internal/predict"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

func feed(p Predictor, outcomes []bool) {
	for _, o := range outcomes {
		p.Branch(0, o, 0)
	}
}

func TestOneBitTracksLastDirection(t *testing.T) {
	p := NewOneBit(1)
	// T T T N N: initial prediction N (miss), then hits, then the
	// flip misses once, then a hit.
	feed(p, []bool{true, true, true, false, false})
	if p.Executed() != 5 {
		t.Errorf("executed = %d", p.Executed())
	}
	if p.Mispredicts() != 2 {
		t.Errorf("mispredicts = %d, want 2", p.Mispredicts())
	}
}

func TestOneBitAlternatingIsWorstCase(t *testing.T) {
	p := NewOneBit(1)
	outcomes := make([]bool, 100)
	for i := range outcomes {
		outcomes[i] = i%2 == 0
	}
	feed(p, outcomes)
	// Alternating defeats a last-direction predictor completely.
	if p.Mispredicts() != 100 {
		t.Errorf("alternating mispredicts = %d, want 100", p.Mispredicts())
	}
}

func TestTwoBitHysteresis(t *testing.T) {
	p := NewTwoBit(1)
	// Train strongly taken, then a single not-taken blip costs one
	// miss but does not flip the prediction: the following taken is
	// still predicted correctly.
	feed(p, []bool{true, true, true, true}) // state saturates at 3
	before := p.Mispredicts()
	feed(p, []bool{false})
	feed(p, []bool{true})
	if p.Mispredicts() != before+1 {
		t.Errorf("blip cost %d misses, want 1 (hysteresis)", p.Mispredicts()-before)
	}
}

func TestTwoBitBeatsOneBitOnLoopExits(t *testing.T) {
	// Classic loop pattern: T T T ... N, repeated. The 1-bit scheme
	// misses twice per loop (exit + re-entry); 2-bit misses once.
	one := NewOneBit(1)
	two := NewTwoBit(1)
	for loop := 0; loop < 50; loop++ {
		for i := 0; i < 9; i++ {
			one.Branch(0, true, 0)
			two.Branch(0, true, 0)
		}
		one.Branch(0, false, 0)
		two.Branch(0, false, 0)
	}
	if two.Mispredicts() >= one.Mispredicts() {
		t.Errorf("2-bit (%d) should beat 1-bit (%d) on loop patterns",
			two.Mispredicts(), one.Mispredicts())
	}
}

func TestStaticMatchesEvaluate(t *testing.T) {
	// Static adapter must count exactly outcomes disagreeing with the
	// table.
	p := NewStatic("x", []bool{true, false})
	p.Branch(0, true, 0)  // hit
	p.Branch(0, false, 0) // miss
	p.Branch(1, false, 0) // hit
	p.Branch(1, true, 0)  // miss
	if p.Mispredicts() != 2 || p.Executed() != 4 {
		t.Errorf("static = %d/%d", p.Mispredicts(), p.Executed())
	}
	if p.Name() != "x" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestMultiFansOut(t *testing.T) {
	a := NewOneBit(1)
	b := NewTwoBit(1)
	m := &Multi{Predictors: []Predictor{a, b}}
	m.Branch(0, true, 1)
	m.Transfer(vm.TransferCall, 2)
	if a.Executed() != 1 || b.Executed() != 1 {
		t.Error("multi did not fan out")
	}
}

// TestMispredictsNeverExceedExecuted holds for any outcome stream and
// any scheme.
func TestMispredictsNeverExceedExecuted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := rng.Intn(8) + 1
		preds := []Predictor{
			NewOneBit(sites),
			NewTwoBit(sites),
			NewStatic("s", make([]bool, sites)),
		}
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			site := int32(rng.Intn(sites))
			taken := rng.Intn(2) == 1
			for _, p := range preds {
				p.Branch(site, taken, uint64(i))
			}
		}
		for _, p := range preds {
			if p.Executed() != uint64(n) || p.Mispredicts() > p.Executed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTwoBitOptimalOnBiasedStream: on a heavily biased stream the
// 2-bit scheme's miss rate approaches the minority rate.
func TestTwoBitOptimalOnBiasedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewTwoBit(1)
	minority := 0
	const n = 10000
	for i := 0; i < n; i++ {
		taken := rng.Intn(10) != 0 // 90% taken
		if !taken {
			minority++
		}
		p.Branch(0, taken, uint64(i))
	}
	// The 2-bit predictor should miss at most ~2x the minority count.
	if p.Mispredicts() > uint64(2*minority+10) {
		t.Errorf("2-bit missed %d of %d on a 90/10 stream (minority %d)",
			p.Mispredicts(), n, minority)
	}
}

// --- history-based schemes -------------------------------------------

// TestTwoLevelLearnsAlternation: an alternating stream defeats both
// counter schemes but is a trivial pattern for any history-based
// predictor — after warmup the pattern table maps history TNTN… to the
// next outcome exactly.
func TestTwoLevelLearnsAlternation(t *testing.T) {
	p := NewTwoLevel(1, 4)
	const n = 1000
	for i := 0; i < n; i++ {
		p.Branch(0, i%2 == 0, uint64(i))
	}
	// Allow a generous warmup; steady state must be miss-free.
	if p.Mispredicts() > 50 {
		t.Errorf("two-level missed %d of %d alternating outcomes", p.Mispredicts(), n)
	}
	one := NewOneBit(1)
	for i := 0; i < n; i++ {
		one.Branch(0, i%2 == 0, uint64(i))
	}
	if p.Mispredicts() >= one.Mispredicts() {
		t.Errorf("two-level (%d) should crush 1-bit (%d) on alternation",
			p.Mispredicts(), one.Mispredicts())
	}
}

// TestTwoLevelLearnsLoopExit: a fixed-trip-count loop (TTTTN repeated)
// is periodic, so with enough history bits the two-level scheme
// predicts the exit itself — beating even the 2-bit counter, which
// must miss every exit.
func TestTwoLevelLearnsLoopExit(t *testing.T) {
	p := NewTwoLevel(1, 8)
	two := NewTwoBit(1)
	const loops = 200
	for l := 0; l < loops; l++ {
		for i := 0; i < 4; i++ {
			p.Branch(0, true, 0)
			two.Branch(0, true, 0)
		}
		p.Branch(0, false, 0)
		two.Branch(0, false, 0)
	}
	// 2-bit misses once per loop at steady state; two-level learns the
	// period and stops missing entirely after warmup.
	if p.Mispredicts() >= two.Mispredicts()/2 {
		t.Errorf("two-level missed %d, 2-bit %d: loop exit not learned",
			p.Mispredicts(), two.Mispredicts())
	}
}

// TestGShareLearnsCorrelation: two sites where the second branch's
// outcome equals the first's — invisible to per-site schemes when the
// second site's own stream looks random, but the global history
// carries exactly the bit gshare needs.
func TestGShareLearnsCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGShare(2, 8)
	two := NewTwoBit(2)
	const n = 5000
	for i := 0; i < n; i++ {
		lead := rng.Intn(2) == 1
		g.Branch(0, lead, 0)
		two.Branch(0, lead, 0)
		// Site 1 copies site 0's outcome: pure correlation.
		g.Branch(1, lead, 0)
		two.Branch(1, lead, 0)
	}
	gMiss := g.SiteMispredicts()[1]
	tMiss := two.SiteMispredicts()[1]
	// The 2-bit counter sees a coin flip at site 1 (~50% miss); gshare
	// sees the correlated history and should approach 0.
	if gMiss*4 > tMiss {
		t.Errorf("gshare missed %d at the correlated site, 2-bit %d — correlation not learned",
			gMiss, tMiss)
	}
}

// TestBiModeLearnsCorrelation: the bias-partitioned tables must handle
// the same correlated pattern, and also keep a strongly biased site
// cheap (the design goal: stop aliasing from destroying biased
// branches).
func TestBiModeLearnsCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	b := NewBiMode(2, 8, 8)
	two := NewTwoBit(2)
	const n = 5000
	for i := 0; i < n; i++ {
		lead := rng.Intn(2) == 1
		b.Branch(0, lead, 0)
		two.Branch(0, lead, 0)
		b.Branch(1, lead, 0)
		two.Branch(1, lead, 0)
	}
	bMiss := b.SiteMispredicts()[1]
	tMiss := two.SiteMispredicts()[1]
	if bMiss*4 > tMiss {
		t.Errorf("bimode missed %d at the correlated site, 2-bit %d — correlation not learned",
			bMiss, tMiss)
	}
}

func TestBiModeKeepsBiasedSiteCheap(t *testing.T) {
	b := NewBiMode(1, 6, 6)
	const n = 2000
	misses := 0
	for i := 0; i < n; i++ {
		taken := i%50 != 49 // 98% taken
		b.Branch(0, taken, 0)
		if !taken {
			misses++
		}
	}
	// A biased branch should cost about its minority count, not more
	// than 2x it (plus warmup slack).
	if b.Mispredicts() > uint64(2*misses+20) {
		t.Errorf("bimode missed %d of %d on a 98/2 stream", b.Mispredicts(), n)
	}
}

// TestZooAttributionConsistent: for every scheme, per-site attribution
// must sum exactly to the totals, on any stream.
func TestZooAttributionConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := rng.Intn(6) + 1
		preds := Zoo(sites)
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			site := int32(rng.Intn(sites))
			taken := rng.Intn(2) == 1
			for _, p := range preds {
				p.Branch(site, taken, uint64(i))
			}
		}
		for _, p := range preds {
			var exec, miss uint64
			for _, v := range p.SiteExecuted() {
				exec += v
			}
			for _, v := range p.SiteMispredicts() {
				miss += v
			}
			if exec != p.Executed() || miss != p.Mispredicts() || p.Err() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// --- Multi ≡ alone ---------------------------------------------------

// TestMultiEquivalentToAlone: fanning a stream through Multi must
// leave every predictor in exactly the state it reaches alone — Multi
// is plumbing, not a scheme.
func TestMultiEquivalentToAlone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sites := rng.Intn(6) + 1
		// Two identically constructed fleets.
		together := Zoo(sites)
		alone := Zoo(sites)
		var tracers []Predictor
		tracers = append(tracers, together...)
		m := &Multi{Predictors: tracers}
		n := rng.Intn(400)
		for i := 0; i < n; i++ {
			site := int32(rng.Intn(sites + 1)) // occasionally out of range
			taken := rng.Intn(2) == 1
			m.Branch(site, taken, uint64(i))
			if rng.Intn(16) == 0 {
				m.Transfer(vm.TransferCall, uint64(i))
			}
			for _, p := range alone {
				p.Branch(site, taken, uint64(i))
			}
		}
		for i := range together {
			a, b := together[i], alone[i]
			if a.Executed() != b.Executed() || a.Mispredicts() != b.Mispredicts() {
				return false
			}
			am, bm := a.SiteMispredicts(), b.SiteMispredicts()
			for j := range am {
				if am[j] != bm[j] {
					return false
				}
			}
			if (a.Err() == nil) != (b.Err() == nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// --- the hardened tracer contract ------------------------------------

// TestStaleSiteCountDoesNotPanic is the regression test for the
// out-of-range crash: a predictor sized from a stale compilation used
// to index p.last[site] straight into a panic. The contract now: the
// event is excluded from every counter and surfaced through Err().
func TestStaleSiteCountDoesNotPanic(t *testing.T) {
	preds := append(Zoo(2), NewStatic("s", []bool{true, false}))
	for _, p := range preds {
		p.Branch(0, true, 0)   // in range
		p.Branch(5, true, 1)   // beyond the table
		p.Branch(-1, false, 2) // negative
		p.Branch(1, false, 3)  // in range again

		if p.Executed() != 2 {
			t.Errorf("%s: executed = %d, want 2 (oob events excluded)", p.Name(), p.Executed())
		}
		if len(p.SiteExecuted()) != 2 {
			t.Errorf("%s: site table resized to %d", p.Name(), len(p.SiteExecuted()))
		}
		err := p.Err()
		if err == nil {
			t.Fatalf("%s: Err() = nil after out-of-range events", p.Name())
		}
		var sre *SiteRangeError
		if !errors.As(err, &sre) {
			t.Fatalf("%s: Err() = %v, want *SiteRangeError", p.Name(), err)
		}
		if sre.Count != 2 || sre.First != 5 || sre.Sites != 2 {
			t.Errorf("%s: SiteRangeError = %+v", p.Name(), sre)
		}
	}

	// A clean stream reports no error.
	clean := NewTwoBit(2)
	clean.Branch(0, true, 0)
	if clean.Err() != nil {
		t.Errorf("clean predictor Err() = %v", clean.Err())
	}

	// Multi surfaces the first predictor's contract violation.
	m := &Multi{Predictors: Zoo(1)}
	m.Branch(3, true, 0)
	if m.Err() == nil {
		t.Error("Multi.Err() = nil after fanning out an oob event")
	}
}

// TestMultiErrReportsUndersizedExtra is the regression test for the
// Extra gap: Multi.Err used to consult only its Predictors, so an
// Extra recorder sized for fewer sites than the program has skipped
// events silently. Each undersized recorder must surface alone.
func TestMultiErrReportsUndersizedExtra(t *testing.T) {
	for _, rec := range []vm.Tracer{
		runlength.NewSites(1),
		runlength.New(&predict.Prediction{Dir: []predict.Direction{predict.Taken}}),
	} {
		m := &Multi{Predictors: Zoo(4), Extra: []vm.Tracer{rec}}
		m.Branch(0, true, 1)
		if err := m.Err(); err != nil {
			t.Fatalf("%T: Err() = %v on an in-range stream", rec, err)
		}
		m.Branch(3, false, 2) // in range for the zoo, beyond the recorder
		err := m.Err()
		if err == nil {
			t.Fatalf("%T: Multi.Err() = nil after the recorder skipped an event", rec)
		}
		if !strings.Contains(err.Error(), "1 event(s)") {
			t.Errorf("%T: Err() = %q, want the skipped-event count", rec, err)
		}
	}
}
