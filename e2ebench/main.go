// Command e2ebench is the repository's end-to-end benchmark. It builds one
// workload in this process — a Harmony server (or a three-member replica
// group), the controller behind it, and a closed-loop load generator with
// two client connections — drives a seeded, fixed sequence of operations
// through the real client/server path, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	go run . --workload db-clients --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	// rounds, when positive, overrides the round count --seconds gives
	// (short runs for the benchmark's own tests).
	rounds int
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: bag-nodechurn, db-clients or replicated-sessions")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation sequence")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: sets the number of timed rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for temporary data and traces")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds < 1 {
		logf("--trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(cfg, out)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintf(out, "%s\n", line)
		}
	}
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// run executes one benchmark run, writing its report lines to out.
func run(cfg config, out *bufio.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rounds := w.rounds(cfg.seconds, builds)
	if cfg.rounds > 0 {
		rounds = cfg.rounds
	}
	p := makePlan(w, cfg.seed, rounds)

	fmt.Fprintf(out, "# e2ebench workload=%s seed=%d rounds=%d timed_ops=%d (per build) trace=%v\n",
		w.name, cfg.seed, p.rounds, len(p.ops)-p.timedFrom, cfg.trace)
	fmt.Fprintf(out, "# env %s\n", fingerprint())
	fmt.Fprintf(out, "# mix per round:%s\n", mixLine(p))

	if !cfg.trace {
		ps, err := runPass(w, p, dir, nil, builds)
		if err != nil {
			return nil, err
		}
		defer ps.close()
		if err := ps.verify(w, dir, nil); err != nil {
			return nil, err
		}
		report(out, ps)
		return summarize(ps, endToEnd(ps)), nil
	}
	// Traced: the same seed untraced first, for the tracing overhead; its
	// decisions are left unchecked, the traced pass checks the same ones.
	plain, err := runPass(w, p, dir, nil, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ps, err := runPass(w, p, dir, tr, 1)
	if err != nil {
		return nil, err
	}
	defer ps.close()
	if err := ps.verify(w, dir, tr); err != nil {
		return nil, err
	}
	report(out, ps)
	traces := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# trace: %d spans written to %s\n", len(tr.spans), path)
	fmt.Fprintf(out, "# update lag: %d samples, %d updates whose wake went unseen; %d current choices the probe could not re-place\n",
		len(ps.pr.lags), ps.pr.lagMissed, ps.pr.probeFails)
	for _, e := range ps.advanceErrs {
		fmt.Fprintf(out, "# failed replicated tick: %s\n", e)
	}
	res := summarize(ps, perLayer(ps, tr, plain))
	if !plain.chk.ok() {
		res.Correct = false
	}
	return res, nil
}

func summarize(ps *pass, m map[string]metric) *result {
	res := &result{Correct: ps.chk.ok(), Metrics: m}
	for _, b := range ps.builds {
		for c := range b.r.attempted {
			res.Attempted += b.r.attempted[c]
			res.Failed += b.r.failed[c]
		}
	}
	return res
}

func (r *runner) completed() (n int) {
	for c := range r.attempted {
		n += r.attempted[c] - r.failed[c]
	}
	return n
}

// report prints the per-class operation counts, the builds' figures and
// the check outcome.
func report(out *bufio.Writer, ps *pass) {
	cls := ps.classes()
	bestLat := ps.bestLat()
	for c := opClass(0); c < numClasses; c++ {
		attempted, failed := 0, 0
		var p50, p90 []float64
		for _, b := range ps.builds {
			attempted += b.r.attempted[c]
			failed += b.r.failed[c]
			xs := byClass(b.r.lat, cls, c)
			p50, p90 = append(p50, percentile(xs, 50)), append(p90, percentile(xs, 90))
		}
		xs := byClass(bestLat, cls, c)
		fmt.Fprintf(out, "# class %-8s attempted=%d failed=%d samples=%d p50_ms=%.4f p90_ms=%.4f (best of %d builds); by build p50_ms=%.4f p90_ms=%.4f\n",
			c, attempted, failed, len(xs), percentile(xs, 50), percentile(xs, 90), len(ps.builds), p50, p90)
	}
	var setups, heaps, timed, steal []float64
	for _, b := range ps.builds {
		setups = append(setups, b.setupS)
		heaps = append(heaps, float64(b.r.heapPeak)/(1<<20))
		timed = append(timed, b.timedS)
		steal = append(steal, float64(b.steal))
	}
	fmt.Fprintf(out, "# setup_s by build: %.4f\n", setups)
	fmt.Fprintf(out, "# heap_peak_mb by build: %.3f\n", heaps)
	fmt.Fprintf(out, "# timed sequence by build: %.2f s; serial replay %.1f s\n", timed, ps.replayS)
	fmt.Fprintf(out, "# steal by build: %.0f ticks of CPU time the hypervisor took during the timed sequence (/proc/stat)\n", steal)
	if ps.chk.ok() {
		fmt.Fprintf(out, "# checks: all passed\n")
		return
	}
	fmt.Fprintf(out, "# checks: %d violation(s)\n", ps.chk.n)
	for _, f := range ps.chk.first {
		fmt.Fprintf(out, "#   %s\n", f)
	}
}

// classes gives each timed operation's latency class.
func (ps *pass) classes() []opClass {
	timed := ps.p.ops[ps.p.timedFrom:]
	cls := make([]opClass, len(timed))
	for i, o := range timed {
		cls[i] = o.Kind.class()
	}
	return cls
}

// bestLat is each timed operation's best latency over the builds.
func (ps *pass) bestLat() []float64 {
	var xss [][]float64
	for _, b := range ps.builds {
		xss = append(xss, b.r.lat)
	}
	return best(xss)
}

// byClass picks the values of one class's operations that succeeded.
func byClass(xs []float64, cls []opClass, c opClass) []float64 {
	var out []float64
	for i, x := range xs {
		if cls[i] == c && !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// endToEnd computes the metrics a user of the system sees. Every
// operation counts with its best time over the builds.
func endToEnd(ps *pass) map[string]metric {
	var setups, heaps []float64
	var busy [][]float64
	completed := 0
	for _, b := range ps.builds {
		setups = append(setups, b.setupS)
		heaps = append(heaps, float64(b.r.heapPeak)/(1<<20))
		busy = append(busy, b.r.busy)
		completed += b.r.completed()
	}
	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"ops_per_s":    {rate(float64(completed)/float64(len(ps.builds)), best(busy)), "1/s"},
		"heap_peak_mb": {median(heaps), "MB"},
	}
	cls, bestLat := ps.classes(), ps.bestLat()
	for _, c := range []opClass{classAdmit, classReconfig, classRead} {
		xs := byClass(bestLat, cls, c)
		m[c.String()+"_p50_ms"] = metric{percentile(xs, 50), "ms"}
		m[c.String()+"_p90_ms"] = metric{percentile(xs, 90), "ms"}
	}
	return m
}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"wire", "probe", "rsl", "vet", "core", "resource", "match", "predict",
	"objective", "namespace", "protocol", "hclient", "server", "replog"}

// perLayer computes the traced run's per-layer metrics.
func perLayer(ps *pass, tr *tracer, plain *pass) map[string]metric {
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	us := func(name string) { put(name+"_us", median(tr.durations(name, 1e3)), "us") }
	ms := func(name string) { put(name+"_ms", median(tr.durations(name, 1e6)), "ms") }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, n := range []string{"rsl.decode", "vet.script", "vet.workload", "resource.snapshot", "resource.nodes",
		"resource.fork", "match.match", "match.reserve", "predict.predict", "objective.eval", "namespace.walk",
		"protocol.encode", "protocol.decode", "hclient.heartbeat", "replog.append"} {
		us(n)
	}
	for _, n := range []string{"core.register", "core.unregister", "core.node_event", "core.reevaluate",
		"replog.encode_state", "server.advance"} {
		ms(n)
	}
	cc := ps.core.counts
	ops := float64(cc.ops)
	pruned := float64(cc.prune.Unreachable + cc.prune.Dominated)
	predictions := float64(cc.memoHits + cc.memoMisses)
	put("core.candidates_per_op", ratio(float64(cc.prune.Considered), ops), "count")
	put("core.pruned_share", ratio(pruned, float64(cc.prune.Considered)), "ratio")
	put("core.predictions_per_op", ratio(predictions, ops), "count")
	put("core.memo_hit_share", ratio(float64(cc.memoHits), predictions), "ratio")
	put("core.events_per_op", ratio(float64(cc.events), ops), "count")
	put("core.alloc_kb_per_op", ratio(float64(cc.allocBytes)/1024, ops), "KB")
	put("core.allocs_per_op", ratio(float64(cc.allocs), ops), "count")
	put("core.gc_per_op", ratio(float64(cc.gc), ops), "count")

	pr := ps.pr
	put("protocol.status_kb", median(pr.statusKB), "KB")
	put("server.update_lag_us", median(pr.lags), "us")
	r := ps.last()
	timedOps := float64(len(r.busy))
	put("replog.log_bytes_per_op", ratio(float64(ps.logBytes), timedOps), "B")
	state, err := ps.core.ctrl.EncodeState()
	if err == nil {
		put("replog.state_kb", float64(len(state))/1024, "KB")
	}
	put("replog.snapshot_kb", float64(ps.snapshotBytes)/1024, "KB")
	put("server.entries_per_op", ratio(float64(ps.entries), timedOps), "count")
	put("server.follower_lag_entries", mean(pr.followerLg), "count")
	put("server.elections", float64(ps.elections), "count")

	self := tr.selfTimes()
	for _, l := range selfLayers {
		put("self."+l+"_ms", float64(self[l].Microseconds())/1e3, "ms")
	}
	// The overhead compares whole timed sequences: spans and probes are
	// part of the traced pass's busy time.
	pr0 := plain.last()
	plainOPS, tracedOPS := rate(float64(pr0.completed()), pr0.busy), rate(float64(r.completed()), r.busy)
	put("trace.untraced_ops_per_s", plainOPS, "1/s")
	put("trace.traced_ops_per_s", tracedOPS, "1/s")
	put("trace.overhead_pct", 100*ratio(plainOPS-tracedOPS, plainOPS), "%")
	return m
}

func mixLine(p plan) string {
	m := mix(p.ops[p.timedFrom:])
	var b strings.Builder
	for k := opKind(0); int(k) < len(opNames); k++ {
		if n := m[k]; n > 0 {
			fmt.Fprintf(&b, " %s=%g", k, float64(n)/float64(p.rounds))
		}
	}
	return b.String()
}

// fingerprint identifies the machine and toolchain a run measured.
func fingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
