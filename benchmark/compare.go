package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Compare mode judges two sets of runs against the bounds in
// BENCHMARK.json:
//
//	benchmark -compare [-bounds BENCHMARK.json] PARENT CHANGE
//
// PARENT and CHANGE are directories holding one <workload>.jsonl file
// per workload, each line the last line of one run. Line i of the two
// files is taken as one pair of alternating runs. For every workload
// and end-to-end metric it prints both sets' medians and quartiles and
// a verdict:
//
//	within bound  the change's median is no worse than the parent's by
//	              more than the metric's bound
//	worse         it is worse by more than the bound
//	unresolved    either set's spread (interquartile range over median)
//	              exceeds the bound, and not every change run beats
//	              every parent run
//	better        (only when the spread is too wide to judge) every
//	              change run beats every parent run
//
// It also applies the rule a claimed gain must meet: the change wins at
// least 9 in 10 of the pairs, ties counting for neither, and the medians
// differ by more than the parent's interquartile range. Compare exits 1
// when any metric is worse or any run was incorrect.

// boundSpec is one end-to-end metric's entry in BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is one workload × metric comparison.
type verdict struct {
	parent, change   [3]float64 // q1, median, q3
	spread           float64    // wider of the two sets' IQR/median
	shift            float64    // (change − parent)/parent median, signed so > 0 is worse
	call             string     // within bound, worse, unresolved, better
	wins, pairs      int
	gain             bool // the pair rule for a claimed gain holds
	parentN, changeN int
}

// judge compares one metric's parent and change values.
func judge(b boundSpec, parent, change []float64) verdict {
	v := verdict{parentN: len(parent), changeN: len(change)}
	v.parent[0], v.parent[1], v.parent[2] = quartiles(parent)
	v.change[0], v.change[1], v.change[2] = quartiles(change)
	// worse(x, y) > 0 when x is worse than y in the metric's direction.
	worse := func(x, y float64) float64 {
		if b.Better == "higher" {
			return y - x
		}
		return x - y
	}
	spread := func(q [3]float64) float64 { return math.Abs(ratio(q[2]-q[0], q[1])) }
	v.spread = math.Max(spread(v.parent), spread(v.change))
	v.shift = ratio(worse(v.change[1], v.parent[1]), math.Abs(v.parent[1]))

	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if worse(c, p) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.spread > b.Bound && allBetter:
		v.call = "better"
	case v.spread > b.Bound:
		v.call = "unresolved"
	case v.shift > b.Bound:
		v.call = "worse"
	default:
		v.call = "within bound"
	}

	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if worse(change[i], parent[i]) < 0 {
			v.wins++
		}
	}
	parentIQR := v.parent[2] - v.parent[0]
	v.gain = v.pairs > 0 && 10*v.wins >= 9*v.pairs && -worse(v.change[1], v.parent[1]) > parentIQR
	return v
}

// runSet is one workload's runs, in file order.
type runSet struct {
	runs      []result
	incorrect int
}

// loadRuns reads every <workload>.jsonl file of dir.
func loadRuns(dir string) (map[string]*runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.jsonl files", dir)
	}
	sets := make(map[string]*runSet)
	for _, f := range files {
		set, err := loadRunFile(f)
		if err != nil {
			return nil, err
		}
		sets[strings.TrimSuffix(filepath.Base(f), ".jsonl")] = set
	}
	return sets, nil
}

func loadRunFile(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Correct || r.Failed > 0 {
			set.incorrect++
		}
		set.runs = append(set.runs, r)
	}
	return set, sc.Err()
}

// values extracts one metric from every run that reported it.
func (s *runSet) values(metric string) []float64 {
	var out []float64
	for _, r := range s.runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark -compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark -compare [-bounds BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	code, err := compare(*boundsPath, fs.Arg(0), fs.Arg(1), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark -compare:", err)
		return 2
	}
	return code
}

// compare prints the comparison table and returns the exit code.
func compare(boundsPath, parentDir, changeDir string, out io.Writer) (int, error) {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return 0, err
	}
	var def struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return 0, fmt.Errorf("%s: %w", boundsPath, err)
	}
	if len(def.EndToEnd) == 0 {
		return 0, errors.New(boundsPath + ": no end_to_end metrics")
	}
	parent, err := loadRuns(parentDir)
	if err != nil {
		return 0, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return 0, err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, errors.New("no workload has runs in both directories")
	}
	code := 0
	fmt.Fprintf(out, "%-14s %-18s %8s %-30s %-30s %8s %8s  %-12s %s\n",
		"workload", "metric", "bound", "parent q1/median/q3 (n)", "change q1/median/q3 (n)", "spread", "worse", "verdict", "gain rule")
	for _, name := range names {
		p, c := parent[name], change[name]
		if p.incorrect+c.incorrect > 0 {
			fmt.Fprintf(out, "%-14s %d parent and %d change runs were incorrect or had failed operations\n", name, p.incorrect, c.incorrect)
			code = 1
		}
		for _, b := range def.EndToEnd {
			v := judge(b, p.values(b.Name), c.values(b.Name))
			if v.parentN == 0 || v.changeN == 0 {
				fmt.Fprintf(out, "%-14s %-18s missing from a run set\n", name, b.Name)
				code = 1
				continue
			}
			if v.call == "worse" {
				code = 1
			}
			gain := "not met"
			if v.gain {
				gain = "met"
			}
			fmt.Fprintf(out, "%-14s %-18s %7.0f%% %-30s %-30s %7.1f%% %7.1f%%  %-12s %s (%d/%d pairs won)\n",
				name, b.Name, 100*b.Bound, triple(v.parent, v.parentN), triple(v.change, v.changeN),
				100*v.spread, 100*v.shift, v.call, gain, v.wins, v.pairs)
		}
	}
	return code, nil
}

func triple(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g/%.4g/%.4g (%d)", q[0], q[1], q[2], n)
}
