package main

import (
	"fmt"
	"math"
	"sort"

	"harmony/internal/core"
	"harmony/internal/protocol"
)

// checker collects correctness violations. Every check compares the
// program's output with a value the benchmark computes itself or with a
// property the method must have.
type checker struct {
	n     int
	first []string
}

func (c *checker) failf(format string, args ...any) {
	c.n++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return c.n == 0 }

// sameFloat compares two float64s to within a relative 1e-12.
func sameFloat(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// interpolate evaluates a model given as one point per worker count
// (x = 1..len(pts)) piecewise linearly, flat beyond either end.
func interpolate(pts []float64, x float64) float64 {
	switch {
	case x <= 1:
		return pts[0]
	case x >= float64(len(pts)):
		return pts[len(pts)-1]
	}
	i := int(x) // 1 <= i < len(pts)
	frac := x - float64(i)
	return pts[i-1] + frac*(pts[i]-pts[i-1])
}

// checkStatus checks one status reply against the generator's own record
// and arithmetic.
func (r *runner) checkStatus(i int, apps []protocol.AppStatus, objective float64) {
	// The app set equals the generator's record of live instances.
	want := make([]int, 0, len(r.live))
	for _, inst := range r.live {
		want = append(want, inst)
	}
	got := make([]int, 0, len(apps))
	for _, a := range apps {
		got = append(got, a.Instance)
	}
	sort.Ints(want)
	sort.Ints(got)
	if fmt.Sprint(want) != fmt.Sprint(got) {
		r.chk.failf("op %d: status lists instances %v, the generator holds %v", i, got, want)
	}
	// The objective is the mean predicted time of the placed apps (the
	// paper's default objective; degraded apps hold no hosts and count
	// for nothing).
	sum, n := 0.0, 0
	for _, a := range apps {
		if len(a.Hosts) > 0 {
			sum += a.PredictedSeconds
			n++
		}
	}
	mean := 0.0
	if n > 0 {
		mean = sum / float64(n)
	}
	if !sameFloat(mean, objective) {
		r.chk.failf("op %d: status objective %v, mean of predicted times %v", i, objective, mean)
	}
	if r.w.bag == nil {
		return
	}
	// Bag jobs hold exclusive nodes, and each one's prediction is its own
	// model at its granted worker count.
	slotOf := make(map[int]int, len(r.live))
	for slot, inst := range r.live {
		slotOf[inst] = slot
	}
	owner := make(map[string]int)
	for _, a := range apps {
		for _, h := range a.Hosts {
			if prev, ok := owner[h]; ok && prev != a.Instance {
				r.chk.failf("op %d: instances %d and %d share host %s", i, prev, a.Instance, h)
			}
			owner[h] = a.Instance
		}
		if len(a.Hosts) == 0 {
			continue
		}
		model := interpolate(r.w.bag(slotOf[a.Instance]), float64(len(a.Hosts)))
		if !sameFloat(model, a.PredictedSeconds) {
			r.chk.failf("op %d: instance %d on %d workers predicted %v s, its model gives %v s",
				i, a.Instance, len(a.Hosts), a.PredictedSeconds, model)
		}
	}
}

// checkDecisions compares the final decisions seen over the wire with a
// serial in-process replay of the same operations: they must be
// bit-identical.
func checkDecisions(chk *checker, wire []protocol.AppStatus, wireObj float64, ref []core.Snapshot, refObj float64) {
	if len(wire) != len(ref) {
		chk.failf("final status has %d apps, the serial replay %d", len(wire), len(ref))
		return
	}
	for i, a := range wire {
		b := ref[i]
		switch {
		case a.Instance != b.Instance || a.App != b.App || a.Bundle != b.Bundle:
			chk.failf("final app %d: wire %d %s/%s, replay %d %s/%s", i, a.Instance, a.App, a.Bundle, b.Instance, b.App, b.Bundle)
		case a.Option != b.Choice.Option || fmt.Sprint(a.Hosts) != fmt.Sprint(b.Hosts):
			chk.failf("instance %d: wire chose %s on %v, replay %s on %v", a.Instance, a.Option, a.Hosts, b.Choice.Option, b.Hosts)
		case math.Float64bits(a.PredictedSeconds) != math.Float64bits(b.PredictedSeconds):
			chk.failf("instance %d: wire predicted %v, replay %v", a.Instance, a.PredictedSeconds, b.PredictedSeconds)
		case a.Switches != b.Switches:
			chk.failf("instance %d: wire switched %d times, replay %d", a.Instance, a.Switches, b.Switches)
		}
	}
	if math.Float64bits(wireObj) != math.Float64bits(refObj) {
		chk.failf("final objective: wire %v, replay %v", wireObj, refObj)
	}
}
