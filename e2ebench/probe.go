package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/hclient"
	"harmony/internal/match"
	"harmony/internal/namespace"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/protocol"
	"harmony/internal/replog"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// prober measures single layers from outside, through their public
// functions, on the live state between operations of a traced run. Every
// call it times is wrapped in a span.
type prober struct {
	tr *tracer
	// store is a scratch durable log for timing one-entry appends.
	store    *replog.Store
	storeIdx uint64

	lags       []float64 // update lag samples, µs
	lagMissed  int       // updates whose wake was not observed
	statusKB   []float64 // encoded status_reply sizes
	followerLg []float64 // leader commit minus the laggiest follower's
	probeFails int       // current choices the probe could not re-place

	startIndex uint64 // leader log index when the timed sequence started
	startBytes int64  // leader data directory size then
}

func newProber(tr *tracer, dir string) (*prober, error) {
	store, _, err := replog.OpenStore(filepath.Join(dir, "append-probe"))
	if err != nil {
		return nil, err
	}
	return &prober{tr: tr, store: store}, nil
}

func (p *prober) close() { _ = p.store.Close() }

// timed runs fn inside a span.
func (p *prober) timed(name string, fn func()) {
	s := p.tr.begin(name, -1)
	fn()
	p.tr.end(s)
}

func (p *prober) startTimed(r *runner) {
	if l := r.sys.leader; l.rep != nil {
		p.startIndex = l.rep.Status().LastIndex
		p.startBytes = dirSize(l.dir)
	}
}

// beforeAdmit times what the server does with an incoming bundle before
// the controller sees it: decode, and the two vet calls of warn mode. The
// server reports their findings itself; here only the time counts.
func (p *prober) beforeAdmit(r *runner, i int, src string) {
	p.timed("rsl.decode", func() { _, _, _ = rsl.DecodeScript(src) })
	ctrl := r.sys.ctrl()
	opts := vet.Options{ExtraNodes: ctrl.ClusterNodes()}
	p.timed("vet.script", func() { vet.Script(src, opts) })
	admitted := ctrl.Bundles()
	p.timed("vet.workload", func() {
		specs := make([]vet.WorkloadSpec, 0, 2)
		if len(admitted) > 0 {
			specs = append(specs, vet.WorkloadSpec{File: "admitted", Bundles: admitted})
		}
		vet.Workload(append(specs, vet.WorkloadSpec{File: "incoming", Src: src}), opts)
	})
}

// afterOp probes every layer once on the live state after operation i.
// The probes only time calls whose outcomes the run's checks already
// cover, so their errors are dropped, except that a current choice the
// probe cannot re-place is counted and reported.
func (p *prober) afterOp(r *runner, i int) {
	root := p.tr.begin("probe", i)
	defer p.tr.end(root)
	ctrl := r.sys.ctrl()
	led := ctrl.Ledger()

	var snap, base *resource.Snapshot
	p.timed("resource.snapshot", func() { snap = led.Snapshot() })
	p.timed("resource.nodes", func() { snap.Nodes() })
	p.timed("resource.fork", func() { base = snap.Fork() })

	// match and predict: re-place each app's current choice in a fork that
	// has its own claim released, as a candidate evaluation does.
	apps, bundles := ctrl.Apps(), ctrl.Bundles()
	matcher, predictor := match.New(led), predict.New(led)
	jobs := make([]objective.JobPrediction, 0, len(apps))
	for k, a := range apps {
		if len(a.Hosts) == 0 || k >= len(bundles) {
			continue
		}
		opt := bundles[k].Option(a.Choice.Option)
		owner := namespace.InstancePath(a.App, a.Instance)
		f := base.Fork()
		for _, cl := range led.OutstandingFor(owner) {
			_ = f.Release(cl.ID)
		}
		m := matcher.WithView(f)
		var asg *match.Assignment
		var err error
		p.timed("match.match", func() {
			asg, err = m.Match(match.Request{Option: opt, Env: rsl.MapEnv(a.Choice.Vars), MemoryGrants: a.Choice.Grants})
		})
		if err == nil {
			p.timed("match.reserve", func() { _, err = m.Reserve(owner, asg) })
		}
		if err == nil {
			p.timed("predict.predict", func() { _, err = predictor.WithView(f).ForOption(opt, asg, true) })
		}
		if err != nil {
			p.probeFails++
		}
		jobs = append(jobs, objective.JobPrediction{App: owner, Seconds: a.PredictedSeconds})
	}
	p.timed("objective.eval", func() { objective.MeanResponseTime(jobs) })
	if len(apps) > 0 {
		prefix := namespace.InstancePath(apps[0].App, apps[0].Instance)
		p.timed("namespace.walk", func() { _ = ctrl.Namespace().Walk(prefix, func(string, namespace.Value) {}) })
	}

	// protocol: the workload's status reply and a bundle_setup, encoded
	// and decoded as the server and clients do.
	reply := &protocol.Message{Type: protocol.TypeStatusReply, Objective: ctrl.Objective()}
	for _, a := range apps {
		reply.Apps = append(reply.Apps, protocol.AppStatus{
			Instance: a.Instance, App: a.App, Bundle: a.Bundle, Option: a.Choice.Option,
			Hosts: a.Hosts, PredictedSeconds: a.PredictedSeconds, Switches: a.Switches,
		})
	}
	msgs := []*protocol.Message{reply, {Type: protocol.TypeBundleSetup, RSL: r.w.spec(0)}}
	var buf bytes.Buffer
	w := protocol.NewWriter(&buf)
	p.timed("protocol.encode", func() {
		for _, m := range msgs {
			_ = w.Write(m)
		}
	})
	p.statusKB = append(p.statusKB, float64(bytes.IndexByte(buf.Bytes(), '\n')+1)/1024)
	rd := protocol.NewReader(&buf)
	p.timed("protocol.decode", func() {
		for range msgs {
			_, _ = rd.Read()
		}
	})

	// hclient: a heartbeat round trip, the wire floor.
	p.timed("hclient.heartbeat", func() { _ = r.sys.conn(r.readConn()).Heartbeat() })

	// replog: one durable append (write + fsync).
	p.storeIdx++
	e := replog.Entry{Index: p.storeIdx, Term: 1, Op: replog.OpReevaluate, Time: r.vnow}
	p.timed("replog.append", func() { _ = p.store.AppendEntries([]replog.Entry{e}) })

	if l := r.sys.leader; l.rep != nil {
		commit := l.rep.Status().CommitIndex
		lag := uint64(0)
		for _, m := range r.sys.members {
			if c := m.rep.Status().CommitIndex; m != l && commit-c > lag && commit > c {
				lag = commit - c
			}
		}
		p.followerLg = append(p.followerLg, float64(lag))
	}
}

// updateWaiter watches one application connection for a pushed update
// while another connection's operation is in flight.
type updateWaiter struct {
	cl     *hclient.Client
	gen    uint64
	cancel context.CancelFunc
	woke   chan time.Time // the wake time; zero when cancelled
}

// watchUpdates starts waiting on the application connection that does not
// issue o, when it holds a live app.
func (p *prober) watchUpdates(r *runner, o op) *updateWaiter {
	var cl *hclient.Client
	if r.sys.gen != nil {
		if o.Conn == 0 {
			cl = r.sys.apps[1]
		}
	} else if _, live := r.live[1-o.Conn]; live {
		cl = r.sys.apps[1-o.Conn]
	}
	if cl == nil {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &updateWaiter{cl: cl, gen: cl.Generation(), cancel: cancel, woke: make(chan time.Time, 1)}
	ready := make(chan struct{})
	go func() {
		close(ready)
		var t time.Time
		if cl.WaitForUpdate(ctx) == nil {
			t = time.Now()
		}
		w.woke <- t
	}()
	<-ready
	return w
}

// updateLag records the time from the ack to the watched connection's
// WaitForUpdate wake. The server flushes updates before it acks, so an
// update the operation caused is already on its way when the ack arrives:
// a short grace suffices, longer once the generation shows it landed.
func (p *prober) updateLag(w *updateWaiter, ack time.Time) {
	grace := 2 * time.Millisecond
	if w.cl.Generation() != w.gen {
		grace = 50 * time.Millisecond
	}
	var woke time.Time
	select {
	case woke = <-w.woke:
	case <-time.After(grace):
		w.cancel()
		woke = <-w.woke
	}
	w.cancel()
	switch {
	case !woke.IsZero() && !ack.IsZero():
		p.lags = append(p.lags, float64(woke.Sub(ack))/float64(time.Microsecond))
	case w.cl.Generation() != w.gen:
		p.lagMissed++
	}
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
