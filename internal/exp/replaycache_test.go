package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"branchprof/internal/engine"
	"branchprof/internal/faults"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// cachedReplayPass installs a fresh engine over dir (plus opts) as the
// package engine, collects the synthetic matrix through it, renders
// the four replay studies and returns the renders with the engine.
func cachedReplayPass(t *testing.T, dir string, opts engine.Options) ([]string, *engine.Engine) {
	t.Helper()
	opts.CacheDir = dir
	eng := engine.New(opts)
	prev := Engine()
	SetEngine(eng)
	defer SetEngine(prev)
	s, err := CollectCtx(context.Background(), eng, CollectOptions{Workloads: replayWorkloads()})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]string, len(replayStudies))
	for i, study := range replayStudies {
		if outs[i], err = study(s); err != nil {
			t.Fatal(err)
		}
	}
	return outs, eng
}

// uncachedReplayRenders renders the four replay studies on an engine
// with no cache directory: the reference every cached pass must match.
func uncachedReplayRenders(t *testing.T) []string {
	t.Helper()
	_, collect := replaySuite(t)
	s := collect()
	outs := make([]string, len(replayStudies))
	for i, study := range replayStudies {
		var err error
		if outs[i], err = study(s); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// replayEntryFiles returns the derived (replay) entries under dir.
func replayEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"derived":`)) {
			out = append(out, p)
		}
	}
	return out
}

// checkReplayStats asserts the engine's replay counters.
func checkReplayStats(t *testing.T, label string, eng *engine.Engine, hits, misses, invalid uint64) {
	t.Helper()
	st := eng.Stats()
	if st.ReplayHits != hits || st.ReplayMisses != misses || st.ReplayInvalid != invalid {
		t.Fatalf("%s: replay hits/misses/invalid = %d/%d/%d, want %d/%d/%d",
			label, st.ReplayHits, st.ReplayMisses, st.ReplayInvalid, hits, misses, invalid)
	}
}

// TestReplayCacheWarmMatchesCold: a pass over an empty cache directory
// traces every program and stores its replay; a second engine over the
// same directory traces nothing, and both render all four replay
// studies byte-identically to an engine with no cache at all.
func TestReplayCacheWarmMatchesCold(t *testing.T) {
	want := uncachedReplayRenders(t)
	n := uint64(len(replayWorkloads()))
	dir := t.TempDir()

	cold, eng := cachedReplayPass(t, dir, engine.Options{})
	checkReplayStats(t, "cold", eng, 0, n, 0)
	if got := len(replayEntryFiles(t, dir)); got != int(n) {
		t.Fatalf("cold pass stored %d replay entries, want %d", got, n)
	}

	warm, eng := cachedReplayPass(t, dir, engine.Options{})
	checkReplayStats(t, "warm", eng, n, 0, 0)
	if st := eng.Stats(); st.Runs != 0 {
		t.Fatalf("warm pass ran %d engine runs, want 0 (measurements and replays all cached)", st.Runs)
	}
	if st := eng.Stats(); st.DiskHits+st.DiskMisses > st.MemMisses {
		t.Fatalf("disk lookups %d+%d exceed memory misses %d", st.DiskHits, st.DiskMisses, st.MemMisses)
	}
	for i := range want {
		if cold[i] != want[i] {
			t.Errorf("study %d: cold cached pass renders\n%s\nuncached\n%s", i, cold[i], want[i])
		}
		if warm[i] != want[i] {
			t.Errorf("study %d: warm cached pass renders\n%s\nuncached\n%s", i, warm[i], want[i])
		}
	}
}

// TestReplayCacheInvalidEntriesRecomputed: a torn write, a corrupted
// file, a payload that is not a replay and an entry at the wrong key
// each count as invalid, are traced again, render identically, and
// leave a good entry behind.
func TestReplayCacheInvalidEntriesRecomputed(t *testing.T) {
	want := uncachedReplayRenders(t)
	n := uint64(len(replayWorkloads()))

	// rewrite applies f to every replay entry file under dir.
	rewrite := func(t *testing.T, dir string, f func(data []byte) []byte) {
		for _, p := range replayEntryFiles(t, dir) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, f(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name  string
		write engine.Options                 // the pass that stores the entries
		hurt  func(t *testing.T, dir string) // damage done afterwards, if any
	}{
		{name: "torn write", write: engine.Options{Faults: faults.NewSet(7,
			faults.Rule{Stage: faults.CacheWrite, Kind: faults.TornWrite, Label: "replay:"})}},
		{name: "corrupt file", hurt: func(t *testing.T, dir string) {
			rewrite(t, dir, func(data []byte) []byte {
				data[len(data)/2] ^= 0xff
				return data
			})
		}},
		{name: "bad payload", hurt: func(t *testing.T, dir string) {
			// A well-formed envelope around a truncated replay payload.
			rewrite(t, dir, func(data []byte) []byte {
				var ent struct {
					Version int    `json:"version"`
					Key     string `json:"key"`
					Payload []byte `json:"derived"`
				}
				if err := json.Unmarshal(data, &ent); err != nil {
					t.Fatal(err)
				}
				ent.Payload = ent.Payload[:len(ent.Payload)/2]
				out, err := json.Marshal(ent)
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
		}},
		{name: "wrong key", hurt: func(t *testing.T, dir string) {
			files := replayEntryFiles(t, dir)
			if len(files) != 2 {
				t.Fatalf("want 2 replay entries to swap, have %d", len(files))
			}
			tmp := filepath.Join(dir, "swap")
			for _, mv := range [][2]string{{files[0], tmp}, {files[1], files[0]}, {tmp, files[1]}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cachedReplayPass(t, dir, c.write)
			if c.hurt != nil {
				c.hurt(t, dir)
			}

			got, eng := cachedReplayPass(t, dir, engine.Options{})
			checkReplayStats(t, "after damage", eng, 0, n, n)
			if st := eng.Stats(); st.Runs != n {
				t.Fatalf("after damage: %d engine runs, want one traced replay per program (%d)", st.Runs, n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("study %d: recomputed pass renders\n%s\nuncached\n%s", i, got[i], want[i])
				}
			}

			_, eng = cachedReplayPass(t, dir, engine.Options{})
			checkReplayStats(t, "after recompute", eng, n, 0, 0)
		})
	}
}

// oobProbe is a tracer that reports an out-of-range site, so a replay
// it is attached to fails its multi.Err() check.
type oobProbe struct{}

func (oobProbe) Branch(int32, bool, uint64)       {}
func (oobProbe) Transfer(vm.TransferKind, uint64) {}
func (oobProbe) OutOfRange() uint64               { return 1 }

// TestReplayCacheStoresOnlySuccess: a cancelled replay and one whose
// multi.Err() is non-nil fail and leave no entry behind.
func TestReplayCacheStoresOnlySuccess(t *testing.T) {
	_, collect := replaySuite(t)
	s := collect()

	t.Run("cancelled", func(t *testing.T) {
		dir := t.TempDir()
		eng := engine.New(engine.Options{CacheDir: dir})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, p := range s.Programs {
			if _, err := replayProgram(ctx, eng, p); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled replay returned %v, want context.Canceled", p.Workload.Name, err)
			}
		}
		if files := replayEntryFiles(t, dir); len(files) != 0 {
			t.Fatalf("cancelled replays stored %d entries", len(files))
		}
	})

	t.Run("multi.Err", func(t *testing.T) {
		dir := t.TempDir()
		eng := engine.New(engine.Options{CacheDir: dir})
		replayProbe = func() vm.Tracer { return oobProbe{} }
		defer func() { replayProbe = nil }()
		for _, p := range s.Programs {
			if _, err := replayProgram(context.Background(), eng, p); err == nil || !strings.Contains(err.Error(), "out-of-range") {
				t.Fatalf("%s: replay with a failing tracer returned %v", p.Workload.Name, err)
			}
		}
		if files := replayEntryFiles(t, dir); len(files) != 0 {
			t.Fatalf("failed replays stored %d entries", len(files))
		}
	})
}

// TestReplayCacheSharedDir: two engines replaying the same programs
// concurrently over one cache directory agree with each other and
// with an uncached replay, whichever of them wrote each entry. Run
// under -race by make race.
func TestReplayCacheSharedDir(t *testing.T) {
	_, collect := replaySuite(t)
	s := collect()
	dir := t.TempDir()
	engs := []*engine.Engine{
		engine.New(engine.Options{CacheDir: dir}),
		engine.New(engine.Options{CacheDir: dir}),
	}
	plain := engine.New(engine.Options{})
	for round := 0; round < 2; round++ {
		got := make([][]tracedReplay, len(engs))
		errs := make([]error, len(engs))
		var wg sync.WaitGroup
		for e, eng := range engs {
			got[e] = make([]tracedReplay, len(s.Programs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[e] = eng.Parallel(len(s.Programs), func(i int) error {
					var err error
					got[e][i], err = replayProgram(context.Background(), eng, s.Programs[i])
					return err
				})
			}()
		}
		wg.Wait()
		for e, err := range errs {
			if err != nil {
				t.Fatalf("round %d engine %d: %v", round, e, err)
			}
		}
		for i, p := range s.Programs {
			want, err := replayProgram(context.Background(), plain, p)
			if err != nil {
				t.Fatal(err)
			}
			for e := range engs {
				if !bytes.Equal(encodeReplay(got[e][i]), encodeReplay(want)) {
					t.Errorf("round %d engine %d: %s replay differs from an uncached one", round, e, p.Workload.Name)
				}
			}
		}
	}
	for e, eng := range engs {
		if st := eng.Stats(); st.ReplayInvalid != 0 || st.DiskWriteErrs != 0 {
			t.Errorf("engine %d: %d invalid replay entries, %d write errors", e, st.ReplayInvalid, st.DiskWriteErrs)
		}
	}
	if got := len(replayEntryFiles(t, dir)); got != len(s.Programs) {
		t.Fatalf("shared dir holds %d replay entries, want %d", got, len(s.Programs))
	}
}

// TestReplayCodecRoundTrip: every field of a replay summary survives
// encode/decode bit for bit, ±Inf and NaN included, and no truncation
// of a payload decodes.
func TestReplayCodecRoundTrip(t *testing.T) {
	// Every field encodeReplay walks. A new field on one of these types
	// must be added to encodeReplay/decodeReplay, with a replayVersion
	// bump; this tripwire names the type to look at.
	for _, c := range []struct {
		v      any
		fields int
	}{
		{tracedReplay{}, 3}, {Replay{}, 3}, {schemeCounts{}, 5}, {runlength.SiteStats{}, 8}, {runlength.Stats{}, 7},
	} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.fields {
			t.Errorf("%T has %d fields, the replay codec encodes %d: extend encodeReplay/decodeReplay and bump replayVersion",
				c.v, got, c.fields)
		}
	}

	eng, collect := replaySuite(t)
	s := collect()
	for _, p := range s.Programs {
		rp, err := replayProgram(context.Background(), eng, p)
		if err != nil {
			t.Fatal(err)
		}
		rp.sites[0].TakenRate = math.Inf(1)
		rp.sites[0].Entropy = math.Inf(-1)
		rp.sites[0].MeanRun = math.NaN()
		rp.runs.CV = math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with a payload
		rp.runs.Mean = math.Copysign(0, -1)
		enc := encodeReplay(rp)
		dec, err := decodeReplay(enc, len(p.Prog.Sites))
		if err != nil {
			t.Fatalf("%s: %v", p.Workload.Name, err)
		}
		if !bytes.Equal(encodeReplay(dec), enc) {
			t.Fatalf("%s: decode/encode does not reproduce the payload", p.Workload.Name)
		}
		if bits := math.Float64bits(dec.runs.CV); bits != 0x7ff8_0000_dead_beef {
			t.Fatalf("%s: NaN payload decoded as %#x", p.Workload.Name, bits)
		}
		dec.runs.CV, rp.runs.CV = 0, 0
		dec.sites[0].MeanRun, rp.sites[0].MeanRun = 0, 0
		if !reflect.DeepEqual(dec, rp) {
			t.Fatalf("%s: decoded replay\n%+v\nwant\n%+v", p.Workload.Name, dec, rp)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeReplay(enc[:cut], len(p.Prog.Sites)); err == nil {
				t.Fatalf("%s: payload truncated to %d of %d bytes decoded", p.Workload.Name, cut, len(enc))
			}
		}
		if _, err := decodeReplay(append(enc, 0), len(p.Prog.Sites)); err == nil {
			t.Fatalf("%s: payload with a trailing byte decoded", p.Workload.Name)
		}
		if _, err := decodeReplay(enc, len(p.Prog.Sites)+1); err == nil {
			t.Fatalf("%s: payload decoded for a program with another site count", p.Workload.Name)
		}
	}
}

// replayGolden pins the SHA-256 of the encoded replay entries of the
// synthetic replay matrix to the replayVersion they were computed
// under. See TestReplayEntryGolden.
var replayGolden = struct {
	version int
	digest  string
}{1, "e097155ab9d2a81f00b6719992306452b44a6273ebccc2c037c3c45d36b0a282"}

// TestReplayEntryGolden is the stale-cache guard. Cached replays are
// keyed by their inputs and replayVersion, not by the code that
// computed them, so a change to a dynpred or runlength rule (or to the
// codec) must bump replayVersion or every existing cache would serve
// summaries the new code would not compute. This test notices such a
// change: the encoded entries of a fixed program set hash to a pinned
// digest.
func TestReplayEntryGolden(t *testing.T) {
	eng, collect := replaySuite(t)
	s := collect()
	h := sha256.New()
	for _, p := range s.Programs {
		rp, err := replayProgram(context.Background(), eng, p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(p.Workload.Name))
		h.Write(encodeReplay(rp))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if replayGolden.version != replayVersion {
		t.Fatalf("replayVersion is %d but the pinned replay digest is for version %d: "+
			"set replayGolden to {%d, %q}", replayVersion, replayGolden.version, replayVersion, got)
	}
	if got != replayGolden.digest {
		t.Fatalf("encoded replay entries hash to %s, pinned %s for replayVersion %d.\n"+
			"The replay summary changed: bump replayVersion in replaycache.go (cached replays from "+
			"the old code must stop matching) and set replayGolden to {%d, %q}.",
			got, replayGolden.digest, replayVersion, replayVersion+1, got)
	}
}

// TestZooFingerprint pins the zoo's contribution to the replay key.
func TestZooFingerprint(t *testing.T) {
	const want = "schemes=1-bit+2-bit+two-level+gshare+bimode,history=12,sites=7,hist=16"
	if got := zooFingerprint(7); got != want {
		t.Fatalf("zooFingerprint(7) = %q, want %q; a zoo change must also bump replayVersion", got, want)
	}
}

// TestReplayKeySensitivity: every input of a replay changes its key —
// the program, the input bytes, and each bit of the self and others
// direction tables — and equal inputs give equal keys.
func TestReplayKeySensitivity(t *testing.T) {
	_, collect := replaySuite(t)
	s := collect()
	a, b := s.Programs[0], s.Programs[1]
	if len(a.Prog.Sites) == 0 {
		t.Fatal("fixture program has no branch sites")
	}
	input := a.InputFor(a.Runs[0])
	dirs := func(flip int) []bool {
		d := make([]bool, len(a.Prog.Sites))
		if flip >= 0 {
			d[flip] = true
		}
		return d
	}
	base := replayKey(a.Prog, input, dirs(-1), dirs(-1))
	if again := replayKey(a.Prog, append([]byte(nil), input...), dirs(-1), dirs(-1)); again != base {
		t.Fatal("equal inputs derive different keys")
	}
	flipped := append([]byte(nil), input...)
	flipped[0] ^= 1
	seen := map[string]string{base: "base"}
	for name, k := range map[string]string{
		"other program":  replayKey(b.Prog, input, dirs(-1), dirs(-1)),
		"input byte":     replayKey(a.Prog, flipped, dirs(-1), dirs(-1)),
		"input length":   replayKey(a.Prog, input[1:], dirs(-1), dirs(-1)),
		"self tables":    replayKey(a.Prog, input, dirs(len(a.Prog.Sites)-1), dirs(-1)),
		"others tables":  replayKey(a.Prog, input, dirs(-1), dirs(0)),
		"swapped tables": replayKey(a.Prog, input, dirs(0), dirs(-1)),
	} {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s derives the same key as %s", name, prev)
		}
		seen[k] = name
	}
}

// FuzzReplayDecode feeds decodeReplay arbitrary bytes for a few site
// counts. It must never panic, and any payload it accepts must be the
// canonical encoding of what it decoded: re-encoding reproduces the
// bytes, so one summary has exactly one accepted entry.
func FuzzReplayDecode(f *testing.F) {
	eng := engine.New(engine.Options{})
	s, err := CollectCtx(context.Background(), eng, CollectOptions{Workloads: replayWorkloads()})
	if err != nil {
		f.Fatal(err)
	}
	sites := []int{0, 1}
	for _, p := range s.Programs {
		rp, err := replayProgram(context.Background(), eng, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeReplay(rp))
		sites = append(sites, len(p.Prog.Sites))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, n := range sites {
			rp, err := decodeReplay(b, n)
			if err != nil {
				continue
			}
			if enc := encodeReplay(rp); !bytes.Equal(enc, b) {
				t.Fatalf("payload accepted for %d sites re-encodes differently:\n in  %x\n out %x", n, b, enc)
			}
		}
	})
}
