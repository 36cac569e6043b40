package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

// The smoke test asserts no timing: only that every workload runs clean at
// a hundredth of its size, emits exactly the metrics BENCHMARK.json names,
// and that the traced run's stages partition each operation (runTraced
// checks that itself and fails the run otherwise).
var smoke = options{seed: 1, seconds: 10, scale: 0.01}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := smoke
			o.traced = traced
			if traced {
				o.outDir = t.TempDir()
			}
			r, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.Failed != 0 || !r.correct() || r.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, first error %v", w.name, traced, r.Attempted, r.Failed, r.firstErr)
			}
			want := names(endToEndDefs)
			if traced {
				want = names(perLayerDefs)
				if _, err := os.Stat(filepath.Join(o.outDir, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", w.name, err)
				}
			}
			if got := sortedKeys(r.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
		}
	}
}

// The names, units, directions and bounds in BENCHMARK.json are the ones the
// harness emits and -compare judges by.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end: BENCHMARK.json %v, harness %v", e2e, endToEndDefs)
	}
	if !reflect.DeepEqual(layer, perLayerDefs) {
		t.Errorf("per_layer: BENCHMARK.json %v, harness %v", layer, perLayerDefs)
	}
}

// One workload through the command line: the last line is the driver's JSON
// object with exactly its four keys.
func TestDriverLine(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "noop_serial", "--seed", "7", "--seconds", "10", "--trace", "0", "-scale", "0.01"}, &out); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if got := sortedKeys(last); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("driver line keys %v", got)
	}
}

// Flipping the expected xor checksum must fail the command: the data_chain
// check is live.
func TestXorCheckIsLive(t *testing.T) {
	xorChecksumFlip = 0x100
	defer func() { xorChecksumFlip = 0 }()
	var out bytes.Buffer
	if code := run([]string{"-workload", "data_chain", "-scale", "0.01"}, &out); code == 0 {
		t.Fatalf("a wrong checksum went unnoticed\n%s", out.String())
	}
}

func TestScaledRunIsNotRecordable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if code := run([]string{"-scale", "0.01", "-json", path}, &bytes.Buffer{}); code == 0 {
		t.Fatal("a scaled run was accepted for recording")
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("a scaled run wrote a record")
	}
}

func TestPercentiles(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{50: 50, 99: 99, 100: 100, 1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
	for n, want := range map[int]float64{100000: 99, 1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 99: 75, 40: 75, 39: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tail percentile of %d samples = p%g, want p%g", n, got, want)
		}
	}
}

func TestSegmentMedianIgnoresOneStall(t *testing.T) {
	durs := make([]int64, 50) // 10 per segment, 1 ms each
	for i := range durs {
		durs[i] = 1e6
	}
	steady := median(segmentValues(durs, rateOf(2)))
	if math.Abs(steady-2000) > 1e-9 {
		t.Fatalf("steady rate %v, want 2000 tasks/s", steady)
	}
	durs[25] = 1e9 // one noisy-neighbour stall in the middle segment
	rates := segmentValues(durs, rateOf(2))
	if got := median(rates); got != steady {
		t.Errorf("one stall moved the median segment's rate to %v", got)
	}
	if relRange(rates) < 0.9 {
		t.Errorf("the stall does not show in the spread: %v", relRange(rates))
	}
	if got := segmentValues(durs[:3], rateOf(1)); len(got) != 1 {
		t.Errorf("fewer samples than segments gave %d values, want 1", len(got))
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"rtt_us_p50", "us", "lower", 0.05}
	higher := metricDef{"tasks_per_s", "1/s", "higher", 0.08}
	for _, c := range []struct {
		def            metricDef
		a, b, spA, spB float64
		want           string
	}{
		{lower, 100, 104, 0, 0, "ok"},
		{lower, 100, 80, 0, 0, "ok"}, // better is never a regression
		{lower, 100, 106, 0.01, 0.01, "regressed"},
		{lower, 100, 106, 0.2, 0.01, "unresolved"},
		{higher, 100, 93, 0, 0, "ok"},
		{higher, 100, 91, 0, 0, "regressed"},
		{higher, 100, 91, 0, 0.3, "unresolved"},
		{higher, 100, 150, 0, 0, "ok"},
	} {
		if got := verdict(c.def, c.a, c.b, c.spA, c.spB); got != c.want {
			t.Errorf("%s %v -> %v (spreads %v, %v): %s, want %s", c.def.name, c.a, c.b, c.spA, c.spB, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(rtt float64, failed int) *report {
		return &report{Workloads: []*result{{
			Workload: "noop_serial", Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"rtt_us_p50": {rtt, "us"}, "tasks_per_s": {1e6 / rtt, "1/s"}, "setup_s": {1, "s"}},
			Spread:  map[string]float64{},
		}}}
	}
	var out bytes.Buffer
	if code := compareReports(mk(20, 0), mk(20.5, 0), &out); code != 0 {
		t.Errorf("2.5%% apart judged a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "base a") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}
	if code := compareReports(mk(20, 0), mk(30, 0), &out); code == 0 {
		t.Error("50% slower passed")
	}
	if code := compareReports(mk(20, 0), mk(20, 1), &out); code == 0 {
		t.Error("a new failed operation passed")
	}
	if code := compareReports(mk(20, 0), &report{}, &out); code == 0 {
		t.Error("a missing workload passed")
	}
}

// stagesOf on hand-made stamps: the clamped cut of a harness-made operation
// and the critical-path cut of an opaque one both partition the operation.
func TestStagesPartition(t *testing.T) {
	id := func(i int) types.TaskID { return probeID(i) }
	ret := func(i int) types.ObjectID { return types.ObjectIDForReturn(id(i), 0) }
	rec := &recorder{
		execs: []execStamp{
			// op 0: the function is entered before Submit has returned.
			{task: id(0), numReturns: 1, entry: 25, exit: 40},
			// op 1 (opaque): 1 -> 2 -> 4 is the critical path; 3 runs beside 2
			// and finishes earlier; 5 is still running when the op ends.
			{task: id(1), numReturns: 1, entry: 110, exit: 120},
			{task: id(2), numReturns: 1, deps: []types.ObjectID{ret(1)}, entry: 125, exit: 150},
			{task: id(3), numReturns: 1, deps: []types.ObjectID{ret(1)}, entry: 121, exit: 140},
			{task: id(4), numReturns: 1, deps: []types.ObjectID{ret(3), ret(2)}, entry: 160, exit: 170},
			{task: id(5), numReturns: 1, deps: []types.ObjectID{ret(4)}, entry: 175, exit: 300},
		},
		ops: []opStamps{
			{start: 10, put: 15, submitted: 30, returned: 50, end: 52, tasks: []types.TaskID{id(0)}},
			{start: 100, end: 180},
		},
	}
	spans := rec.stagesOf()
	want := [][numStages]int64{
		{5, 15, 0, 10, 10, 2},  // put, submit, wait (clamped to 0), exec (30..40), return, release
		{0, 10, 15, 45, 10, 0}, // submit 100..110; exec 10+25+10; wait 5+10; return 170..180
	}
	for i, sp := range spans {
		if sp.stage != want[i] {
			t.Errorf("op %d stages %v, want %v", i, sp.stage, want[i])
		}
		var sum int64
		for _, d := range sp.stage {
			sum += d
		}
		if sum != sp.end-sp.start {
			t.Errorf("op %d stages sum to %d, the op took %d", i, sum, sp.end-sp.start)
		}
	}
}

// The median operation's profile is made of the operations in the middle of
// the distribution, so an outlier in either tail cannot move it and it sums
// to the median operation.
func TestMedianOpProfile(t *testing.T) {
	var spans []opSpans
	for i := 0; i < 100; i++ {
		sp := opSpans{start: 0, end: 3000}
		sp.stage[stageSubmit], sp.stage[stageWait] = 1000, 2000
		if i < 10 { // a tenth of the operations stall in sched.wait
			sp.end, sp.stage[stageWait] = 1e9, 1e9-1000
		}
		spans = append(spans, sp)
	}
	got := medianOpProfile(spans)
	if got[stageSubmit] != 1 || got[stageWait] != 2 || got[stageExec] != 0 {
		t.Errorf("profile %v, want 1 us of core.submit and 2 us of sched.wait", got)
	}
	if got := medianOpProfile(nil); got != [numStages]float64{} {
		t.Errorf("profile of no operations: %v", got)
	}
}
