package main

import (
	"fmt"
	"runtime"

	"harmony/internal/core"
	"harmony/internal/replog"
	"harmony/internal/simclock"
)

// coreCounts are the controller's work counters over the replayed timed
// operations.
type coreCounts struct {
	ops                    int
	events                 int
	allocBytes, allocs, gc uint64
	prune                  core.PruneStats
	memoHits, memoMisses   uint64
}

// replayed is an in-process controller that executed the same operations.
type replayed struct {
	ctrl   *core.Controller
	clock  *simclock.Clock
	counts coreCounts
}

func (rp *replayed) close() {
	rp.ctrl.Stop()
	rp.clock.Stop()
}

var coreSpan = map[opKind]string{
	opAdmit: "core.register", opEnd: "core.unregister",
	opDown: "core.node_event", opDrain: "core.node_event", opUp: "core.node_event",
	opTick: "core.reevaluate",
}

// replay executes the logged controller operations on an in-process
// controller with no server, each at its logged virtual time, through the
// deterministic Apply entry point replicas use. evalWorkers is the
// controller's EvalWorkers: 1 for the serial reference, 0 for the default
// the server runs with. With a tracer, every timed operation
// (log[timedFrom:]) is spanned and its allocations counted, and the state
// encoding a replica snapshot would write is timed after it.
func replay(w *workload, log []ctrlOp, timedFrom, evalWorkers int, tr *tracer) (*replayed, error) {
	cl, err := w.cluster()
	if err != nil {
		return nil, err
	}
	clock := simclock.New()
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock, EvalWorkers: evalWorkers})
	if err != nil {
		clock.Stop()
		return nil, err
	}
	rp := &replayed{ctrl: ctrl, clock: clock}
	inst := make(map[int]int)
	var before, after runtime.MemStats
	var p0 core.PruneStats
	var h0, m0 uint64
	for k, c := range log {
		e := &replog.Entry{Time: c.at}
		switch c.kind {
		case opAdmit:
			e.Op, e.RSL = replog.OpRegister, w.spec(c.slot)
		case opEnd:
			e.Op, e.Instance = replog.OpUnregister, inst[c.slot]
		case opDown, opDrain, opUp:
			e.Op, e.Hostname, e.State = replog.OpNodeState, c.host, nodeStates[c.kind]
		case opTick:
			e.Op = replog.OpReevaluate
		}
		traced := tr != nil && k >= timedFrom
		if tr != nil && k == timedFrom {
			p0 = ctrl.PruneStats()
			h0, m0 = ctrl.MemoStats()
		}
		s := -1
		if traced {
			runtime.ReadMemStats(&before)
			s = tr.begin(coreSpan[c.kind], k)
		}
		res, err := ctrl.Apply(e)
		if traced {
			tr.end(s)
			runtime.ReadMemStats(&after)
			rp.counts.ops++
			rp.counts.allocBytes += after.TotalAlloc - before.TotalAlloc
			rp.counts.allocs += after.Mallocs - before.Mallocs
			rp.counts.gc += uint64(after.NumGC - before.NumGC)
		}
		if err != nil {
			rp.close()
			return nil, fmt.Errorf("replay op %d (%s): %w", k, c.kind, err)
		}
		if c.kind == opAdmit {
			inst[c.slot] = res.Instance
		}
		if traced {
			rp.counts.events += len(res.Events)
			s := tr.begin("replog.encode_state", k)
			_, err := ctrl.EncodeState()
			tr.end(s)
			if err != nil {
				rp.close()
				return nil, err
			}
		}
	}
	if tr != nil {
		p1 := ctrl.PruneStats()
		h1, m1 := ctrl.MemoStats()
		rp.counts.prune = core.PruneStats{
			Considered:  p1.Considered - p0.Considered,
			Unreachable: p1.Unreachable - p0.Unreachable,
			Dominated:   p1.Dominated - p0.Dominated,
		}
		rp.counts.memoHits, rp.counts.memoMisses = h1-h0, m1-m0
	}
	return rp, nil
}
