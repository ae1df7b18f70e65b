package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPlanIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, 7, 3), makePlan(w, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", w.name)
		}
		if c := makePlan(w, 8, 3); reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
	}
}

// Every round has the same make-up, whatever the seed, so runs of any seed
// do the same amount of each kind of work.
func TestRoundMixIsFixed(t *testing.T) {
	for _, w := range workloads {
		want := roundMix(w, 1)
		for seed := int64(2); seed <= 20; seed++ {
			if got := roundMix(w, seed); !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: round mix %v, seed 1 %v", w.name, seed, got, want)
			}
		}
	}
}

func roundMix(w *workload, seed int64) map[opKind]int {
	p := makePlan(w, seed, 1)
	return mix(p.ops[p.timedFrom:])
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35} // sorted: 15 20 35 40 50
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {90, 46}, {100, 50},
		{10, 17}, // rank 0.4: 15 + 0.4*(20-15)
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestBestAndRate(t *testing.T) {
	nan := math.NaN()
	got := best([][]float64{{3, nan, 5, nan}, {2, 4, 6, nan}, {4, 7, nan, nan}})
	want := []float64{2, 4, 5, nan}
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Errorf("best: op %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Three operations completed in 10+20+10 ms: 75 per second.
	if r := rate(3, []float64{10, 20, 10}); math.Abs(r-75) > 1e-12 {
		t.Errorf("rate = %v, want 75", r)
	}
}

func TestInterpolate(t *testing.T) {
	pts := []float64{10, 6, 5}
	for _, c := range []struct{ x, want float64 }{{0, 10}, {1, 10}, {1.5, 8}, {2, 6}, {2.25, 5.75}, {3, 5}, {9, 5}} {
		if got := interpolate(pts, c.x); got != c.want {
			t.Errorf("interpolate(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSpans(t *testing.T) {
	var none *tracer
	if s := none.begin("x", 0); s != -1 {
		t.Errorf("nil tracer begin = %d, want -1", s)
	}
	none.end(-1)

	tr := newTracer()
	root := tr.begin("wire.admit", 3)
	child := tr.begin("vet.script", -1)
	tr.end(child)
	tr.end(root)
	if tr.spans[child].Parent != root || tr.spans[child].Op != 3 {
		t.Errorf("child span %+v: want parent %d, op 3", tr.spans[child], root)
	}
	self := tr.selfTimes()
	total := tr.spans[root].dur()
	if got := int64(self["wire"] + self["vet"]); got != total {
		t.Errorf("self times sum to %d ns, the root span lasts %d ns", got, total)
	}
}

// proposeFault is the error of a known fault of the replica group (see
// README.md, Found faults): a proposal that a leader heartbeat commits and
// applies while it is still being written to disk fails although it took
// effect, and the generator's checks then fail too.
const proposeFault = "applied without outcome"

// Each workload runs a short sequence end to end, untraced and traced,
// and reports exactly the metrics BENCHMARK.json lists; only the traced
// run records spans. On the workloads BENCHMARK.json gates, every
// operation succeeds and every check passes. replicated-sessions is not
// gated because of proposeFault, which fails about one short run in two
// there: a run it cut short is logged, not failed, and its failed
// operations and checks are logged.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least two", len(bench.Workloads))
	}
	for _, bw := range bench.Workloads {
		if _, err := findWorkload(bw.Name); err != nil {
			t.Error(err)
		}
	}
	gated := make(map[string]bool)
	for _, bw := range bench.Workloads {
		gated[bw.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				out := t.TempDir()
				cfg := config{workload: w.name, seed: 3, seconds: 1, trace: traced, out: out, rounds: 1}
				res, err := run(cfg, bufio.NewWriter(io.Discard))
				if err != nil && !gated[w.name] && strings.Contains(err.Error(), proposeFault) {
					t.Logf("traced=%v: cut short by the known replica fault: %v", traced, err)
					continue
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if res.Attempted == 0 {
					t.Errorf("traced=%v: no operation attempted", traced)
				}
				if !res.Correct || res.Failed != 0 {
					report := t.Errorf
					if !gated[w.name] {
						report = t.Logf
					}
					report("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := bench.EndToEnd
				if traced {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, BENCHMARK.json gives unit %s", traced, m.Name, got, m.Unit)
					}
				}
				traces, _ := filepath.Glob(filepath.Join(out, "traces", "*"))
				if got := len(traces) > 0; got != traced {
					t.Errorf("traced=%v: trace files %v", traced, traces)
				}
				entries, _ := os.ReadDir(out)
				for _, e := range entries {
					if e.Name() != "traces" {
						t.Errorf("run left %s behind", e.Name())
					}
				}
			}
		})
	}
}
