package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// opKind is one client-visible operation of the load generator.
type opKind uint8

const (
	opAdmit   opKind = iota // bundle_setup of an app slot
	opEnd                   // harmony_end of an app slot's live instance
	opDown                  // node_state down
	opDrain                 // node_state drain
	opUp                    // node_state up
	opTick                  // advance the virtual clock, then reevaluate
	opStatus                // status read
	opStartup               // startup on a connection (replicated sessions)
	opAddVar                // add_variable on a connection (replicated sessions)
)

var opNames = [...]string{"admit", "end", "down", "drain", "up", "tick", "status", "startup", "add_variable"}

func (k opKind) String() string { return opNames[k] }

// opClass groups operations into the latency classes the benchmark reports.
type opClass uint8

const (
	classAdmit    opClass = iota // bundle_setup to its ack
	classReconfig                // node_state, end, tick+reevaluate
	classRead                    // status round trip
	classSession                 // startup, add_variable (counted, not reported)
	numClasses
)

var classNames = [numClasses]string{"admit", "reconfig", "read", "session"}

func (k opKind) class() opClass {
	switch k {
	case opAdmit:
		return classAdmit
	case opStatus:
		return classRead
	case opStartup, opAddVar:
		return classSession
	}
	return classReconfig
}

// op is one step of a plan. Node targets are either explicit hostnames or
// symbolic ("host HostIdx of Slot's current placement"), resolved against
// the live placement when the step runs.
type op struct {
	Kind opKind
	// Conn is the connection that issues the operation (see runner).
	Conn int
	// Slot names the app slot admitted or ended, or the occupant whose host
	// a symbolic node operation targets.
	Slot int
	// Host is an explicit node_state target.
	Host string
	// Occupied marks a symbolic target: host HostIdx (mod the host count)
	// of Slot's placement at the time the operation runs.
	Occupied bool
	HostIdx  int
	// Ref, for opUp, is the plan index of the down/drain whose host it
	// brings back; -1 otherwise.
	Ref int
	// Tick is the virtual-clock advance of an opTick.
	Tick time.Duration
}

func (o op) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s conn=%d", o.Kind, o.Conn)
	switch o.Kind {
	case opAdmit, opEnd:
		fmt.Fprintf(&b, " slot=%d", o.Slot)
	case opDown, opDrain:
		if o.Occupied {
			fmt.Fprintf(&b, " host=slot%d[%d]", o.Slot, o.HostIdx)
		} else {
			fmt.Fprintf(&b, " host=%s", o.Host)
		}
	case opUp:
		fmt.Fprintf(&b, " ref=%d", o.Ref)
	case opTick:
		fmt.Fprintf(&b, " +%v", o.Tick)
	}
	return b.String()
}

// plan is a workload's whole operation sequence: set-up admissions, one
// warm-up round and the timed rounds. Only ops[timedFrom:] are timed.
type plan struct {
	ops       []op
	timedFrom int
	rounds    int
}

// planBuilder appends operations, tracking indices for Ref links.
type planBuilder struct {
	ops []op
}

func (b *planBuilder) add(o op) int {
	if o.Kind != opUp {
		o.Ref = -1
	}
	b.ops = append(b.ops, o)
	return len(b.ops) - 1
}

// write appends a write followed by the status read that checks it
// ("status reads run between writes").
func (b *planBuilder) write(o op, readConn int) int {
	i := b.add(o)
	b.add(op{Kind: opStatus, Conn: readConn})
	return i
}

// makePlan builds the seeded sequence for w: the same seed always yields
// the same operations, and every round has the same make-up.
func makePlan(w *workload, seed int64, rounds int) plan {
	rng := rand.New(rand.NewSource(seed))
	b := &planBuilder{}
	w.setupOps(b)
	w.round(b, rng) // warm-up
	p := plan{timedFrom: len(b.ops)}
	for r := 0; r < rounds; r++ {
		w.round(b, rng)
	}
	p.ops = b.ops
	p.rounds = rounds
	return p
}

// mix counts a plan segment's operations by kind.
func mix(ops []op) map[opKind]int {
	m := make(map[opKind]int)
	for _, o := range ops {
		m[o.Kind]++
	}
	return m
}
