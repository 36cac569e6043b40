// Command bench is the repository's benchmark: five closed-loop workloads
// measured end to end (rtt_us_p50, tasks_per_s, setup_s), a traced re-run
// that breaks each operation into stages and per-task counters, and
// isolation probes of every layer's exported entry points. It measures the
// system from outside, through exported functions and accessors only. See
// README.md for the workloads, the metric definitions and the predictions.
//
//	go run -C bench . -workload noop_serial -seed 1 -seconds 10 -trace 0
//	go run -C bench . -json out/run.json      # everything, recordable
//	go run -C bench . -probes
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// fingerprint names the environment a recorded run came from.
type fingerprint struct {
	Commit     string         `json:"commit"`
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	SetupReps  int            `json:"setup_reps"`
	Warmup     map[string]int `json:"warmup_ops"`
}

// report is the machine-readable record of a full run. It claims nothing:
// the baseline is whatever was measured.
type report struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workloads   []*result         `json:"workloads"`
	Traced      []*result         `json:"traced"`
	Probes      map[string]metric `json:"probes"`
	Claim       *string           `json:"claim"`
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print one JSON result line (default: run everything)")
	seed := fs.Uint64("seed", 1, "seeds the payload bytes and the RL simulators")
	seconds := fs.Float64("seconds", 10, "length of each measured phase")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced run and reports the per-layer metrics")
	scale := fs.Float64("scale", 1, "shrink warm-up, set-up repetitions and measured phase (smoke test only)")
	probes := fs.Bool("probes", false, "run only the isolation probes")
	jsonPath := fs.String("json", "", "write the full run's record here (refused unless -scale is 1)")
	compare := fs.Bool("compare", false, "compare two records: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), out)
	}
	if *jsonPath != "" && *scale != 1 {
		fmt.Fprintln(os.Stderr, "bench: a run at -scale != 1 is not recordable; drop -json or -scale")
		return 2
	}
	if *probes {
		printMetrics(out, "probes", runProbes(*scale))
		return 0
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: "out"}

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		o.traced = *trace == 1
		r, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(out, r)
		line, _ := json.Marshal(map[string]any{
			"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		fmt.Fprintln(out, string(line))
		if !r.correct() {
			fmt.Fprintln(os.Stderr, "bench:", r.firstErr)
			return 1
		}
		return 0
	}

	// Everything, in a fixed order: each workload untraced then traced, each
	// on a fresh cluster after a GC, then the probes.
	rep := report{Fingerprint: newFingerprint(o)}
	code := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			o.traced = traced
			r, err := runWorkload(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printResult(out, r)
			if !r.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, r.firstErr)
				code = 1
			}
			if traced {
				rep.Traced = append(rep.Traced, r)
			} else {
				rep.Workloads = append(rep.Workloads, r)
			}
		}
	}
	rep.Probes = runProbes(*scale)
	printMetrics(out, "probes", rep.Probes)
	data, _ := json.MarshalIndent(rep, "", "  ")
	if *jsonPath != "" && code == 0 {
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The summary repeats where the numbers came from and ends by claiming
	// nothing.
	summary, _ := json.MarshalIndent(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Claim       *string     `json:"claim"`
	}{Fingerprint: rep.Fingerprint}, "", "  ")
	fmt.Fprintln(out, string(summary))
	return code
}

func newFingerprint(o options) fingerprint {
	fp := fingerprint{
		Commit: "unknown", CPUModel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: o.seconds, SetupReps: setupReps, Warmup: map[string]int{},
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			fp.Commit += "+dirty"
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	for _, w := range workloads {
		fp.Warmup[w.name] = w.warmup
	}
	return fp
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	fmt.Fprintf(out, "== %s\n", title)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printResult(out io.Writer, r *result) {
	kind := "end to end"
	if r.Traced {
		kind = "traced"
	}
	printMetrics(out, fmt.Sprintf("%s (%s): %d ops attempted, %d failed, %d samples, tail is p%g",
		r.Workload, kind, r.Attempted, r.Failed, r.Samples, r.TailPct), r.Metrics)
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(out, "  %-34s %14.4f %s (not gated)\n", k, r.Info[k].Value, r.Info[k].Unit)
	}
	for _, name := range stageNames {
		if share, ok := r.StageShare[name]; ok {
			fmt.Fprintf(out, "  %-34s %13.1f%% of the operation\n", name, share*100)
		}
	}
}
