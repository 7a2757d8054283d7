// Package runlength measures the distribution of instruction-run
// lengths between breaks in control — the paper's observation that
// "the distribution of runs of instructions between mispredicted
// branches will not be constant ... far more ILP will be available if
// one has 80 instructions followed by two mispredicted branches than
// if one has 40 instructions, a mispredicted branch" (§3). The mean
// alone (instructions per break) hides this; the recorder captures
// the whole distribution.
package runlength

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"branchprof/internal/predict"
	"branchprof/internal/vm"
)

// Recorder implements vm.Tracer: given a static prediction, it
// records the distance (in instructions) between consecutive breaks —
// mispredicted conditional branches and unavoidable indirect
// transfers.
type Recorder struct {
	dirs      []bool // per-site predicted-taken
	lastBreak uint64
	runs      []uint64
	oob       uint64 // branch events at out-of-range sites (skipped)
}

// New builds a recorder for a prediction over the program's sites.
func New(pred *predict.Prediction) *Recorder {
	return &Recorder{dirs: pred.TakenTable()}
}

// Branch implements vm.Tracer. A site id outside the prediction's
// table (recorder attached with a stale site count) is counted on
// OutOfRange and skipped rather than panicking the run, matching the
// dynpred tracer contract.
func (r *Recorder) Branch(site int32, taken bool, instrs uint64) {
	if site < 0 || int(site) >= len(r.dirs) {
		r.oob++
		return
	}
	if r.dirs[site] != taken {
		r.record(instrs)
	}
}

// OutOfRange returns how many branch events carried a site id outside
// the prediction's table (program/prediction shape mismatch).
func (r *Recorder) OutOfRange() uint64 { return r.oob }

// Transfer implements vm.Tracer.
func (r *Recorder) Transfer(kind vm.TransferKind, instrs uint64) {
	if breaks(kind) {
		r.record(instrs)
	}
}

// Block implements dynpred.BlockTracer with the same rules as Branch and
// Transfer, keeping the run state in locals for the whole block.
func (r *Recorder) Block(evs []vm.Event) {
	dirs, runs, last := r.dirs, r.runs, r.lastBreak
	for _, e := range evs {
		if !e.IsBranch() {
			if breaks(e.Transfer()) {
				runs, last = closeRun(runs, last, e.Instrs)
			}
			continue
		}
		i := int(e.Site)
		if uint(i) >= uint(len(dirs)) {
			r.oob++
			continue
		}
		if dirs[i] != e.Taken() {
			runs, last = closeRun(runs, last, e.Instrs)
		}
	}
	r.runs, r.lastBreak = runs, last
}

// breaks reports whether a non-branch transfer is a break in control:
// indirect calls and returns are unavoidable ones.
func breaks(kind vm.TransferKind) bool {
	return kind == vm.TransferIndirectCall || kind == vm.TransferIndirectReturn
}

// closeRun appends the run ending at a break after instrs
// instructions, given the previous break at last.
func closeRun(runs []uint64, last, instrs uint64) ([]uint64, uint64) {
	return append(runs, instrs-last), instrs
}

func (r *Recorder) record(instrs uint64) {
	r.runs, r.lastBreak = closeRun(r.runs, r.lastBreak, instrs)
}

// Finish records the tail run — the instructions between the final
// break and program exit, which the break events alone never close.
// Without it that last stretch (the whole program, for a run with no
// breaks at all) silently vanishes from the distribution. Call it
// once after the run with the run's total instruction count
// (vm.Result.Instrs); calling it again, or with a count at or before
// the last break, is a no-op.
func (r *Recorder) Finish(totalInstrs uint64) {
	if totalInstrs > r.lastBreak {
		r.record(totalInstrs)
	}
}

// Runs returns the recorded run lengths in execution order.
func (r *Recorder) Runs() []uint64 { return r.runs }

// Stats summarizes a run-length distribution.
type Stats struct {
	Count  int
	Mean   float64
	Median float64
	P90    float64
	P99    float64
	Max    uint64
	// CV is the coefficient of variation (stddev/mean); an
	// exponential spacing gives ~1, clustering gives more.
	CV float64
}

// Summarize computes distribution statistics.
func (r *Recorder) Summarize() Stats {
	n := len(r.runs)
	if n == 0 {
		return Stats{}
	}
	sorted := slices.Clone(r.runs)
	slices.Sort(sorted)
	var sum, sumsq float64
	for _, v := range sorted {
		f := float64(v)
		sum += f
		sumsq += f * f
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	q := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return float64(sorted[idx])
	}
	s := Stats{
		Count:  n,
		Mean:   mean,
		Median: q(0.5),
		P90:    q(0.9),
		P99:    q(0.99),
		Max:    sorted[n-1],
	}
	if mean > 0 {
		s.CV = math.Sqrt(variance) / mean
	}
	return s
}

// Histogram buckets run lengths into powers of two up to maxLog2 and
// renders an ASCII histogram.
func (r *Recorder) Histogram(maxLog2 int) string {
	buckets := make([]int, maxLog2+1)
	for _, v := range r.runs {
		b := 0
		for v > 1 && b < maxLog2 {
			v >>= 1
			b++
		}
		buckets[b]++
	}
	peak := 0
	for _, c := range buckets {
		if c > peak {
			peak = c
		}
	}
	var sb strings.Builder
	for b, c := range buckets {
		width := 0
		if peak > 0 {
			width = c * 40 / peak
		}
		lo := 1 << b
		label := fmt.Sprintf("2^%-2d (%d+)", b, lo)
		fmt.Fprintf(&sb, "%-12s %6d %s\n", label, c, strings.Repeat("#", width))
	}
	return sb.String()
}
