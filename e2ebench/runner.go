package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"harmony/internal/protocol"
)

// ctrlOp is one executed controller operation, logged for the serial
// replay with its resolved target and virtual time.
type ctrlOp struct {
	kind opKind // opAdmit, opEnd, opDown, opDrain, opUp or opTick (reevaluate)
	slot int
	host string
	at   time.Duration
}

// runner drives a plan through one system over the wire, one operation at
// a time (a closed loop: the next operation is sent after the previous
// ack), checks every result, and records the latency of every timed
// operation.
type runner struct {
	w   *workload
	sys *system
	tr  *tracer // nil: untraced, no spans and no probes
	pr  *prober // per-layer probes (traced only)

	live  map[int]int    // app slot -> live instance
	hosts map[int]string // plan index -> node_state host it resolved to
	vnow  time.Duration  // the virtual clock only the generator advances

	log      []ctrlOp
	logTimed int // log index where the timed sequence starts

	// lat and busy hold, for every timed operation in order, the round
	// trip's latency and the operation's share of the sequence's wall time
	// (its turn of the loop less the benchmark's own checks; a traced run's
	// spans and probes included), in ms. lat is NaN where it failed.
	lat, busy []float64
	checking  time.Duration // wall time spent in the benchmark's own checks
	attempted [numClasses]int
	failed    [numClasses]int
	// heapPeak is the largest heap goal seen after any timed operation:
	// the collector lets the in-use heap grow to its goal before each
	// cycle ends, so the goal is the peak in-use heap, read without the
	// sampling jitter of catching the sawtooth at a random phase.
	heapPeak uint64
	heapSmp  []metrics.Sample

	chk *checker
}

func newRunner(w *workload, sys *system, chk *checker) *runner {
	return &runner{
		w:       w,
		sys:     sys,
		live:    make(map[int]int),
		hosts:   make(map[int]string),
		chk:     chk,
		heapSmp: []metrics.Sample{{Name: "/gc/heap/goal:bytes"}},
	}
}

// run executes ops[from:to] of the plan; timed operations are measured.
// A failed untimed (set-up or warm-up) operation aborts the run; a failed
// timed one is counted and the sequence goes on.
func (r *runner) run(ops []op, from, to int, timed bool) error {
	if timed {
		r.logTimed = len(r.log)
		if r.pr != nil {
			r.pr.startTimed(r)
		}
	}
	for i := from; i < to; i++ {
		o := ops[i]
		t0, checking0 := time.Now(), r.checking
		root := r.tr.begin("wire."+o.Kind.class().String(), i)
		lat, err := r.exec(i, o)
		r.tr.end(root)
		if timed {
			c := o.Kind.class()
			r.attempted[c]++
			ms := float64(lat) / float64(time.Millisecond)
			if err != nil {
				r.failed[c]++
				ms = math.NaN()
			}
			r.lat = append(r.lat, ms)
			r.check(func() {
				metrics.Read(r.heapSmp)
				if v := r.heapSmp[0].Value.Uint64(); v > r.heapPeak {
					r.heapPeak = v
				}
			})
		}
		if err != nil {
			if !timed {
				return fmt.Errorf("op %d (%s): %w", i, o, err)
			}
			logf("op %d (%s) failed: %v", i, o, err)
		}
		r.check(func() {
			if err := r.sys.ctrl().Ledger().CheckConservation(); err != nil {
				r.chk.failf("after op %d (%s): %v", i, o, err)
			}
		})
		if r.pr != nil && timed && o.Kind != opStatus {
			r.pr.afterOp(r, i)
		}
		if timed {
			busy := time.Since(t0) - (r.checking - checking0)
			r.busy = append(r.busy, float64(busy)/float64(time.Millisecond))
		}
	}
	return nil
}

// check runs one of the benchmark's own checks, keeping its time out of
// the operations' busy time.
func (r *runner) check(fn func()) {
	t0 := time.Now()
	fn()
	r.checking += time.Since(t0)
}

func (c opClass) String() string { return classNames[c] }

var nodeStates = map[opKind]string{opDown: "down", opDrain: "drain", opUp: "up"}

// exec performs one operation and returns the latency of its round trip:
// from sending the request to receiving its ack.
func (r *runner) exec(i int, o op) (time.Duration, error) {
	var wait *updateWaiter
	if r.pr != nil && o.Kind != opStatus {
		wait = r.pr.watchUpdates(r, o)
	}
	var (
		t0  time.Time
		lat time.Duration
		err error
	)
	switch o.Kind {
	case opAdmit:
		src := r.w.spec(o.Slot)
		if r.pr != nil {
			r.pr.beforeAdmit(r, i, src)
		}
		var inst int
		t0 = time.Now()
		inst, err = r.admit(o.Conn, src)
		lat = time.Since(t0)
		if err == nil {
			r.live[o.Slot] = inst
			r.record(ctrlOp{kind: opAdmit, slot: o.Slot})
		}
	case opEnd:
		inst, ok := r.live[o.Slot]
		if !ok {
			return 0, fmt.Errorf("slot %d has no live instance", o.Slot)
		}
		t0 = time.Now()
		err = r.end(o.Conn, inst)
		lat = time.Since(t0)
		if err == nil {
			delete(r.live, o.Slot)
			r.record(ctrlOp{kind: opEnd, slot: o.Slot})
		}
	case opDown, opDrain, opUp:
		host, rerr := r.resolve(i, o)
		if rerr != nil {
			return 0, rerr
		}
		t0 = time.Now()
		err = r.nodeState(o.Conn, host, nodeStates[o.Kind])
		lat = time.Since(t0)
		if err == nil {
			r.record(ctrlOp{kind: o.Kind, host: host})
		}
	case opTick:
		r.vnow += o.Tick
		t0 = time.Now()
		r.sys.clock().AdvanceTo(r.vnow)
		err = r.reevaluate(o.Conn)
		lat = time.Since(t0)
		if err == nil {
			r.record(ctrlOp{kind: opTick})
		}
	case opStatus:
		var apps []protocol.AppStatus
		var obj float64
		t0 = time.Now()
		apps, obj, err = r.status(o.Conn)
		lat = time.Since(t0)
		if err == nil {
			r.check(func() { r.checkStatus(i, apps, obj) })
		}
	case opStartup:
		t0 = time.Now()
		err = r.sys.conn(o.Conn).Startup(fmt.Sprintf("session%d", o.Conn), true)
		lat = time.Since(t0)
	case opAddVar:
		t0 = time.Now()
		_, err = r.sys.conn(o.Conn).AddVariable("bench.level", protocol.NumVar(1))
		lat = time.Since(t0)
	}
	if wait != nil {
		r.pr.updateLag(wait, t0.Add(lat))
	}
	return lat, err
}

func (r *runner) record(c ctrlOp) {
	c.at = r.vnow
	r.log = append(r.log, c)
}

// resolve maps a node operation to its host: explicit, the host a down or
// drain took out (for up), or a host of an app slot's current placement.
func (r *runner) resolve(i int, o op) (string, error) {
	var host string
	switch {
	case o.Kind == opUp:
		h, ok := r.hosts[o.Ref]
		if !ok {
			return "", fmt.Errorf("up refers to op %d, which did not run", o.Ref)
		}
		host = h
	case o.Occupied:
		inst, ok := r.live[o.Slot]
		if !ok {
			return "", fmt.Errorf("slot %d has no live instance to target", o.Slot)
		}
		for _, a := range r.sys.ctrl().Apps() {
			if a.Instance == inst && len(a.Hosts) > 0 {
				host = a.Hosts[o.HostIdx%len(a.Hosts)]
			}
		}
		if host == "" {
			return "", fmt.Errorf("slot %d (instance %d) holds no host", o.Slot, inst)
		}
	default:
		host = o.Host
	}
	r.hosts[i] = host
	return host, nil
}

// The generator's connection (single server, conn 0) speaks the protocol
// directly; every other connection is an hclient.Client.
func (r *runner) raw(conn int) *wireConn {
	if conn == 0 && r.sys.gen != nil {
		return r.sys.gen
	}
	return nil
}

func (r *runner) admit(conn int, src string) (int, error) {
	if g := r.raw(conn); g != nil {
		reply, err := g.call(&protocol.Message{Type: protocol.TypeBundleSetup, RSL: src})
		if err != nil {
			return 0, err
		}
		return reply.Instance, nil
	}
	return r.sys.conn(conn).BundleSetup(src)
}

func (r *runner) end(conn, inst int) error {
	if g := r.raw(conn); g != nil {
		_, err := g.call(&protocol.Message{Type: protocol.TypeEnd, Instance: inst})
		return err
	}
	c := r.sys.conn(conn)
	if got := c.Instance(); got != inst {
		return fmt.Errorf("connection %d owns instance %d, not %d", conn, got, inst)
	}
	return c.End()
}

func (r *runner) nodeState(conn int, host, state string) error {
	if g := r.raw(conn); g != nil {
		_, err := g.call(&protocol.Message{Type: protocol.TypeNodeState, Hostname: host, State: state})
		return err
	}
	return r.sys.conn(conn).NodeState(host, state)
}

func (r *runner) reevaluate(conn int) error {
	if g := r.raw(conn); g != nil {
		_, err := g.call(&protocol.Message{Type: protocol.TypeReevaluate})
		return err
	}
	return r.sys.conn(conn).Reevaluate()
}

func (r *runner) status(conn int) ([]protocol.AppStatus, float64, error) {
	if g := r.raw(conn); g != nil {
		reply, err := g.call(&protocol.Message{Type: protocol.TypeStatus})
		if err != nil {
			return nil, 0, err
		}
		return reply.Apps, reply.Objective, nil
	}
	return r.sys.conn(conn).Status()
}

// readConn is a connection that can issue reads at any time.
func (r *runner) readConn() int {
	if r.sys.gen != nil {
		return 1
	}
	return 0
}

// finalStatus reads the status once more, untimed, after the sequence.
func (r *runner) finalStatus() ([]protocol.AppStatus, float64, error) {
	return r.status(r.readConn())
}

// quiesce waits until every replica member's controller encodes the same
// state, or ctx ends.
func (r *runner) quiesce(ctx context.Context) error {
	for {
		var first []byte
		same := true
		for i, m := range r.sys.members {
			b, err := m.ctrl.EncodeState()
			if err != nil {
				return err
			}
			if i == 0 {
				first = b
			} else if string(b) != string(first) {
				same = false
			}
		}
		if same {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("replica states still differ after quiesce")
		case <-time.After(5 * time.Millisecond):
		}
	}
}
