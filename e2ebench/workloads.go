package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/rsl"
)

// workload is one benchmark input: a cluster, the RSL of each app slot, the
// set-up admissions and the seeded round generator.
type workload struct {
	name string
	// replicated runs three replica members instead of one server.
	replicated bool
	// spec(slot) is the RSL of an app slot; admit and end name slots.
	spec func(slot int) string
	// bag maps a slot to its performance model when the slot is a Bag job
	// (exclusive nodes, one model point per worker count).
	bag func(slot int) []float64
	// cluster builds the managed machines.
	cluster  func() (*cluster.Cluster, error)
	setupOps func(b *planBuilder)
	round    func(b *planBuilder, rng *rand.Rand)
	// roundsPerSecond sizes a run: --seconds s runs ceil(s*roundsPerSecond)
	// timed rounds in all, split evenly over the builds, and each build
	// runs at least minRounds, which gives every latency class reported at
	// p90 at least 100 samples. The work is fixed by the arguments, not by
	// the speed of the build under test.
	roundsPerSecond float64
	minRounds       int
}

var workloads = []*workload{bagNodeChurn(), dbClients(), replicatedSessions()}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// rounds is the number of timed rounds each of n builds runs.
func (w *workload) rounds(seconds, n int) int {
	return max(w.minRounds, int(math.Ceil(float64(seconds)*w.roundsPerSecond/float64(n))))
}

// bagModel is a Bag job's performance model: total work W split over w
// workers plus a communication phase growing as c*w^2, one point per worker
// count 1..n.
func bagModel(work, comm float64, n int) []float64 {
	pts := make([]float64, n)
	for w := 1; w <= n; w++ {
		pts[w-1] = work/float64(w) + comm*float64(w*w)
	}
	return pts
}

// bagRSL renders a variable-parallelism Bag bundle over exclusive nodes
// with the explicit model pts (Figure 4's application shape).
func bagRSL(app string, instance int, work float64, pts []float64) string {
	counts := make([]string, len(pts))
	perf := make([]string, len(pts))
	for i, s := range pts {
		counts[i] = strconv.Itoa(i + 1)
		perf[i] = fmt.Sprintf("{%d %s}", i+1, strconv.FormatFloat(s, 'g', -1, 64))
	}
	return fmt.Sprintf(`harmonyBundle %s:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {%s / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, app, instance, strings.Join(counts, " "), strconv.FormatFloat(work, 'g', -1, 64), strings.Join(perf, " "))
}

func sp2Host(i int) string { return fmt.Sprintf("sp2-%02d", i) }

// bag-nodechurn: Figure 4 on a larger SP-2. Three Bag jobs stay; a fourth
// arrives and leaves in every cycle while nodes go down, drain and return.
const (
	bagNodes     = 64
	bagIdleFirst = 41 // hosts sp2-41..sp2-64 hold no job: four 5-worker jobs fill the lowest hosts first
	bagWork      = 300.0
	bagComm      = 1.2
)

func bagNodeChurn() *workload {
	model := bagModel(bagWork, bagComm, bagNodes)
	w := &workload{
		name:    "bag-nodechurn",
		spec:    func(slot int) string { return bagRSL(fmt.Sprintf("Bag%d", slot+1), slot+1, bagWork, model) },
		bag:     func(int) []float64 { return model },
		cluster: func() (*cluster.Cluster, error) { return cluster.NewSP2(bagNodes) },
		// One round: eight cycles of [admit job 4, a node event, the node
		// back up, end job 4], one tick.
		roundsPerSecond: 2,
		minRounds:       13,
	}
	w.setupOps = func(b *planBuilder) {
		b.add(op{Kind: opAdmit, Conn: 1, Slot: 0})
		b.add(op{Kind: opAdmit, Conn: 0, Slot: 1})
		b.add(op{Kind: opAdmit, Conn: 0, Slot: 2})
	}
	w.round = func(b *planBuilder, rng *rand.Rand) {
		// Every round has the same shape; the seed picks only which hosts
		// and jobs. Eight node events, four downs and four drains: five on
		// idle hosts and three on occupied ones (the application
		// connection's job, job 2 or 3, and the arriving job 4).
		idle := rng.Perm(bagNodes - bagIdleFirst + 1)
		next := 0
		idleHost := func() op {
			next++
			return op{Host: sp2Host(bagIdleFirst + idle[next-1])}
		}
		occupied := func(slot int) op { return op{Occupied: true, Slot: slot, HostIdx: rng.Intn(5)} }
		events := [8]op{
			occupied(0), idleHost(), idleHost(), idleHost(),
			occupied(1 + rng.Intn(2)), idleHost(), idleHost(), occupied(3),
		}
		for c, t := range events {
			b.write(op{Kind: opAdmit, Conn: 0, Slot: 3}, 1)
			t.Kind, t.Conn = opDown, 0
			if c%2 == 1 {
				t.Kind = opDrain
			}
			ref := b.write(t, 1)
			b.write(op{Kind: opUp, Conn: 0, Ref: ref}, 1)
			if c == 4 {
				b.write(op{Kind: opTick, Conn: 0, Tick: time.Duration(30+rng.Intn(60)) * time.Second}, 1)
			}
			b.write(op{Kind: opEnd, Conn: 0, Slot: 3}, 1)
		}
	}
	return w
}

// db-clients: Figure 7 with one database server and dozens of clients.
const (
	dbHosts = 48 // client hosts dbclient01..48
	dbBase  = 40 // clients live through the whole run, on hosts 1..40
	dbTick  = 4000 * time.Second
)

func dbHost(i int) string { return fmt.Sprintf("dbclient%02d", i) }

// dbRSL is the Figure 3 client bundle with a granularity tag: the default
// contention model prices both options, and the DS link formula reads the
// granted client memory.
func dbRSL(slot int) string {
	host := dbHost(slot + 1)
	return fmt.Sprintf(`harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}
		{granularity 3600}
	}
	{DS
		{node server dbserver {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
		{granularity 3600}
	}
}`, slot+1, host, host)
}

func dbClients() *workload {
	w := &workload{
		name: "db-clients",
		spec: dbRSL,
		cluster: func() (*cluster.Cluster, error) {
			// The server's buffer pool fits every client, so admission never
			// falls back to the joint search.
			decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: 64 + 24*float64(dbHosts+1), OS: "linux", CPUs: 1}}
			for i := 1; i <= dbHosts; i++ {
				decls = append(decls, &rsl.NodeDecl{Hostname: dbHost(i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1})
			}
			return cluster.New(cluster.Config{}, decls)
		},
		// One round: four arrivals and their departures, three down/up
		// pairs (one on the application connection's host), one tick.
		roundsPerSecond: 5,
		minRounds:       25,
	}
	w.setupOps = func(b *planBuilder) {
		b.add(op{Kind: opAdmit, Conn: 1, Slot: 0})
		for s := 1; s < dbBase; s++ {
			b.add(op{Kind: opAdmit, Conn: 0, Slot: s})
		}
	}
	w.round = func(b *planBuilder, rng *rand.Rand) {
		// Every round has the same shape; the seed picks only which spare
		// hosts the four arrivals use and which two base clients' hosts go
		// down besides the application connection's.
		spare := rng.Perm(dbHosts - dbBase)
		base := rng.Perm(dbBase - 1)
		arrivals, downs := 0, []int{0, 1 + base[0], 1 + base[1]}
		var live []int
		for _, t := range "aanetaneaene" {
			switch t {
			case 'a':
				slot := dbBase + spare[arrivals]
				arrivals++
				b.write(op{Kind: opAdmit, Conn: 0, Slot: slot}, 1)
				live = append(live, slot)
			case 'e':
				b.write(op{Kind: opEnd, Conn: 0, Slot: live[0]}, 1)
				live = live[1:]
			case 'n':
				ref := b.write(op{Kind: opDown, Conn: 0, Host: dbHost(downs[0] + 1)}, 1)
				b.write(op{Kind: opUp, Conn: 0, Ref: ref}, 1)
				downs = downs[1:]
			case 't':
				b.write(op{Kind: opTick, Conn: 0, Tick: dbTick}, 1)
			}
		}
	}
	return w
}

// replicated-sessions: three replica members; two long-lived client
// connections run short application lives against the leader.
const (
	repNodes = 8
	repWork  = 40.0
	repComm  = 0.5
	repMaxW  = 4
)

func replicatedSessions() *workload {
	model := bagModel(repWork, repComm, repMaxW)
	w := &workload{
		name:       "replicated-sessions",
		replicated: true,
		spec:       func(slot int) string { return bagRSL(fmt.Sprintf("Sess%d", slot+1), slot+1, repWork, model) },
		bag:        func(int) []float64 { return model },
		cluster:    func() (*cluster.Cluster, error) { return cluster.NewSP2(repNodes) },
		// One round: nine application lives, five on connection 0 and four
		// on connection 1, each overlapping a life on the other connection;
		// two ticks; a down/up and a drain/up of a host of the life just
		// started, issued from the other connection.
		roundsPerSecond: 26,
		minRounds:       12,
	}
	w.setupOps = func(*planBuilder) {}
	w.round = func(b *planBuilder, rng *rand.Rand) {
		start := func(c int) {
			b.add(op{Kind: opStartup, Conn: c})
			b.add(op{Kind: opAdmit, Conn: c, Slot: c})
			b.add(op{Kind: opAddVar, Conn: c})
			b.add(op{Kind: opStatus, Conn: c})
		}
		nodePair := func(kind opKind, issuer, slot int) {
			ref := b.add(op{Kind: kind, Conn: issuer, Occupied: true, Slot: slot, HostIdx: rng.Intn(repMaxW)})
			b.add(op{Kind: opUp, Conn: issuer, Ref: ref})
		}
		start(0)
		for i := 0; i < 8; i++ {
			c := (i + 1) % 2 // connection 1-c holds a live app; c starts one
			start(c)
			switch i {
			case 1, 5:
				b.add(op{Kind: opTick, Conn: 1 - c, Tick: time.Duration(1+rng.Intn(5)) * time.Second})
			case 3:
				nodePair(opDown, 1-c, c)
			case 7:
				nodePair(opDrain, 1-c, c)
			}
			b.add(op{Kind: opEnd, Conn: 1 - c, Slot: 1 - c})
		}
		// Close the round as it opened: no live app.
		b.add(op{Kind: opEnd, Conn: 0, Slot: 0})
	}
	return w
}
