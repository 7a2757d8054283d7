// Runlengths: visualizes the paper's §3 observation that breaks in
// control are not evenly spaced — "far more ILP will be available if
// one has 80 instructions followed by two mispredicted branches than
// if one has 40 instructions, a mispredicted branch". It runs the
// espresso workload under self prediction with a run-length recorder
// attached and prints the power-of-two histogram of instruction runs
// between breaks.
package main

import (
	"fmt"
	"log"

	"branchprof"
	"branchprof/internal/engine"
	"branchprof/internal/mfc"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

func main() {
	w, err := workloads.ByName("espresso")
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.Default()
	prog, err := eng.Compile(w.Name, w.Source, mfc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	input := w.Datasets[0].Gen()

	// First run gathers the profile; the second records run lengths
	// under the resulting (self) prediction.
	run, err := branchprof.Run(prog, input)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := branchprof.PredictSelf(prog, run)
	if err != nil {
		log.Fatal(err)
	}
	rec := runlength.New(pred)
	res, err := eng.Run(prog, "", input, &vm.Config{Trace: rec})
	if err != nil {
		log.Fatal(err)
	}
	if n := rec.OutOfRange(); n > 0 {
		log.Fatalf("recorder skipped %d branch events at out-of-range sites", n)
	}
	// Close the distribution with the tail run from the last break to
	// program exit, which no break event ends.
	rec.Finish(res.Instrs)

	stats := rec.Summarize()
	fmt.Printf("espresso/%s under self prediction: %d breaks\n", w.Datasets[0].Name, stats.Count)
	fmt.Printf("run lengths: mean %.1f, median %.0f, p90 %.0f, p99 %.0f, max %d (CV %.2f)\n\n",
		stats.Mean, stats.Median, stats.P90, stats.P99, stats.Max, stats.CV)
	fmt.Println("instructions between breaks (power-of-two buckets):")
	fmt.Print(rec.Histogram(14))
	fmt.Println("\nthe long tail is the point: the mean alone understates how much")
	fmt.Println("straight-line work an ILP compiler can find between barriers.")
}
