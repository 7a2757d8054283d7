package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"branchprof/internal/dynpred"
	"branchprof/internal/isa"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// A traced replay's summary is a pure function of its inputs, so an
// engine with a persistent cache keeps it as a derived entry
// (engine.LoadDerived/StoreDerived) next to the measurements it was
// computed from. The engine stores the bytes; this file owns their
// key and encoding.

// replayVersion versions the replay summary: its encoding and the
// predictor and run-length rules that produce it. Bump it whenever a
// dynpred or runlength rule changes, so cached summaries computed
// under the old rules stop matching. TestReplayEntryGolden pins the
// encoded summaries of a fixed program set to this version.
const replayVersion = 1

// zooSchemes lists the dynamic zoo's scheme names in report order.
var zooSchemes = sync.OnceValue(func() []string {
	var names []string
	for _, p := range dynpred.Zoo(0) {
		names = append(names, p.Name())
	}
	return names
})

// zooFingerprint canonicalizes the predictor zoo and the run-length
// histogram width for key derivation.
func zooFingerprint(sites int) string {
	return fmt.Sprintf("schemes=%s,history=%d,sites=%d,hist=%d",
		strings.Join(zooSchemes(), "+"), dynpred.DefaultHistoryBits, sites, replayHistWidth)
}

// replayKey derives the derived-entry key of a program's traced
// replay from everything the summary depends on: the program's
// digest, the input bytes, the run configuration, the self and others
// static direction tables bit for bit (so a change in predict or in
// the collected profiles changes the key), the zoo, the VM semantics
// and replayVersion.
func replayKey(prog *isa.Program, input []byte, self, others []bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "branchprof-replay/%d\x00vm/%d\x00", replayVersion, vm.SemanticsVersion)
	fmt.Fprintf(h, "prog=%s\x00cfg=%s\x00zoo=%s\x00", isa.ProgramDigest(prog), new(vm.Config).Fingerprint(), zooFingerprint(len(prog.Sites)))
	fmt.Fprintf(h, "in/%d\x00", len(input))
	h.Write(input)
	for _, dirs := range [][]bool{self, others} {
		fmt.Fprintf(h, "\x00dirs/%d\x00", len(dirs))
		bits := make([]byte, (len(dirs)+7)/8)
		for i, d := range dirs {
			if d {
				bits[i/8] |= 1 << (i % 8)
			}
		}
		h.Write(bits)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeReplay serializes a replay summary: unsigned varints for
// counts and integers, IEEE-754 bits for floats (so every float,
// ±Inf and NaN included, round-trips exactly) and length-prefixed
// strings, in a fixed field order. It is a fixed field walk, like
// isa.ProgramDigest, so the bytes cannot drift with library versions.
func encodeReplay(rp tracedReplay) []byte {
	var w replayWriter
	w.uint(uint64(len(rp.preds)))
	for _, p := range rp.preds {
		w.str(p.name)
		w.uint(p.executed)
		w.uint(p.mispredicts)
		w.uints(p.siteExec)
		w.uints(p.siteMiss)
	}
	w.uint(rp.instrs)
	w.uint(uint64(len(rp.sites)))
	for _, s := range rp.sites {
		w.uint(uint64(s.Site))
		w.uint(s.Executed)
		w.uint(s.Taken)
		w.float(s.TakenRate)
		w.float(s.Entropy)
		w.uint(s.Runs)
		w.float(s.MeanRun)
		w.uint(s.MaxRun)
	}
	st := rp.runs
	w.uint(uint64(st.Count))
	for _, f := range []float64{st.Mean, st.Median, st.P90, st.P99} {
		w.float(f)
	}
	w.uint(st.Max)
	w.float(st.CV)
	w.str(rp.hist)
	return w.b
}

// errReplayEntry reports a derived entry that does not decode to a
// replay summary of the expected shape.
var errReplayEntry = errors.New("exp: malformed replay entry")

// decodeReplay is encodeReplay's inverse for a program with the given
// number of branch sites. It rejects any payload that is truncated,
// has trailing bytes, is not encodeReplay's canonical encoding (an
// overlong varint), or is not shaped like a replay of such a
// program: the self, others and zoo schemes in report order, every
// per-site table sized to the program, totals equal to the per-site
// sums.
func decodeReplay(b []byte, sites int) (tracedReplay, error) {
	r := replayReader{b: b}
	want := append([]string{"self", "others"}, zooSchemes()...)
	var rp tracedReplay
	if !r.expect(len(want)) {
		return tracedReplay{}, errReplayEntry
	}
	rp.preds = make([]schemeCounts, len(want))
	for i, name := range want {
		p := schemeCounts{
			name:        r.str(),
			executed:    r.uint(),
			mispredicts: r.uint(),
			siteExec:    r.uints(sites),
			siteMiss:    r.uints(sites),
		}
		if r.err != nil || p.name != name || sumCounts(p.siteExec) != p.executed || sumCounts(p.siteMiss) != p.mispredicts {
			return tracedReplay{}, errReplayEntry
		}
		rp.preds[i] = p
	}
	rp.instrs = r.uint()
	if !r.expect(sites) {
		return tracedReplay{}, errReplayEntry
	}
	rp.sites = make([]runlength.SiteStats, sites)
	for i := range rp.sites {
		s := runlength.SiteStats{
			Site:      int(r.uint()),
			Executed:  r.uint(),
			Taken:     r.uint(),
			TakenRate: r.float(),
			Entropy:   r.float(),
			Runs:      r.uint(),
			MeanRun:   r.float(),
			MaxRun:    r.uint(),
		}
		if s.Site != i {
			return tracedReplay{}, errReplayEntry
		}
		rp.sites[i] = s
	}
	rp.runs = runlength.Stats{
		Count:  int(r.uint()),
		Mean:   r.float(),
		Median: r.float(),
		P90:    r.float(),
		P99:    r.float(),
		Max:    r.uint(),
		CV:     r.float(),
	}
	rp.hist = r.str()
	if r.err != nil || len(r.b) != 0 {
		return tracedReplay{}, errReplayEntry
	}
	return rp, nil
}

// sumCounts totals a per-site counter table.
func sumCounts(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// replayWriter appends encodeReplay's primitives.
type replayWriter struct{ b []byte }

func (w *replayWriter) uint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *replayWriter) float(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *replayWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *replayWriter) uints(v []uint64) {
	w.uint(uint64(len(v)))
	for _, x := range v {
		w.uint(x)
	}
}

// replayReader consumes decodeReplay's primitives. The first failure
// sticks in err; every later read returns a zero value.
type replayReader struct {
	b   []byte
	err error
}

// uint reads one varint and rejects an overlong one (a zero final
// byte after continuation bytes), which binary.Uvarint accepts but
// encodeReplay never writes: every accepted payload is canonical.
func (r *replayReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.err = errReplayEntry
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *replayReader) float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = errReplayEntry
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// expect reads a length prefix and fails unless it equals want, so a
// corrupt prefix can never size an allocation.
func (r *replayReader) expect(want int) bool {
	if n := r.uint(); r.err == nil && n != uint64(want) {
		r.err = errReplayEntry
	}
	return r.err == nil
}

func (r *replayReader) str() string {
	n := r.uint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errReplayEntry
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *replayReader) uints(want int) []uint64 {
	if !r.expect(want) {
		return nil
	}
	out := make([]uint64, want)
	for i := range out {
		out[i] = r.uint()
	}
	return out
}
