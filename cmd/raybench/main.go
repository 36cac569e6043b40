// Command raybench regenerates the paper's workload-level artifacts (E5, E6
// and E8–E13 of the experiment index in DESIGN.md §5). Each experiment
// prints a paper-style table together with the paper's claimed value, so
// the output can be pasted into EXPERIMENTS.md. The latency and throughput
// micros (E1–E4, E7) are workloads of the repo benchmark instead:
// `go run -C bench . -workload noop_serial|gpu_remote|noop_window`.
//
//	raybench            # run everything
//	raybench -exp E5    # one experiment
//	raybench -quick     # smaller parameters (CI-sized)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one reproducible artifact.
type experiment struct {
	id    string
	title string
	run   func(quick bool)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (E5, E6, E8..E13 or all)")
	quick := flag.Bool("quick", false, "reduced parameters for fast runs")
	flag.Parse()

	experiments := []experiment{
		{"E5", "§4.2 RL workload: serial vs BSP(Spark) vs ours (paper: Spark 9x slower than serial, ours 7x faster, 63x vs Spark)", expRLComparison},
		{"E6", "§4.2 wait-based pipelining under stragglers", expWaitPipelining},
		{"E8", "§3.2.2 hybrid vs central-only scheduling ablation", expHybridAblation},
		{"E9", "§3.2.1 fault tolerance: lineage reconstruction (R6)", expReconstruction},
		{"E10", "Fig 2b MCTS: dynamic task graph speedup (R3)", expMCTS},
		{"E11", "Fig 2c RNN: dataflow vs per-step barriers (R4/R5)", expRNN},
		{"E12", "Fig 2a sensor fusion: streaming latency (R1/R5)", expSensor},
		{"E13", "R7 event-log overhead", expEventLogOverhead},
	}

	want := strings.ToUpper(*exp)
	ran := 0
	sort.SliceStable(experiments, func(i, j int) bool { return numOf(experiments[i].id) < numOf(experiments[j].id) })
	for _, e := range experiments {
		if want != "ALL" && e.id != want {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		e.run(*quick)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "raybench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func numOf(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}
