package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"harmony/internal/protocol"
	"harmony/internal/server"
)

// builds is how many times an untraced run builds the system and runs the
// timed sequence on it. setup_s is the median of the builds' set-up times,
// and each operation counts with its best time over the builds.
const builds = 5

// advances is how many empty replicated ticks a traced run times.
const advances = 20

// build is one build of the system and the timed sequence run on it.
type build struct {
	r      *runner
	setupS float64
	timedS float64
	// steal is the CPU time, in USER_HZ ticks, the hypervisor took from
	// the machine while the timed sequence ran.
	steal int64
	// final decisions read over the wire after the sequence.
	apps []protocol.AppStatus
	obj  float64
}

// pass is one measured execution of a plan, on one or more builds.
type pass struct {
	p      plan
	builds []*build
	chk    *checker
	// replica figures of the last build's timed sequence (zero on a single
	// server).
	entries, logBytes, snapshotBytes int64
	elections                        uint64
	// advanceErrs are failed Replica.Advance calls of a traced pass.
	advanceErrs []string
	// rp is the serial replay the final decisions are checked against;
	// core, in a traced pass, the replay under the server's own Config
	// whose controller calls are timed and counted.
	rp, core *replayed
	pr       *prober // traced passes only
	replayS  float64 // wall time of the serial replay
}

func (ps *pass) last() *runner { return ps.builds[len(ps.builds)-1].r }

func (ps *pass) close() {
	for _, rp := range []*replayed{ps.rp, ps.core} {
		if rp != nil {
			rp.close()
		}
	}
}

// runPass builds the system n times and runs the timed sequence over the
// wire on each build. A non-nil tracer also probes every layer.
func runPass(w *workload, p plan, dir string, tr *tracer, n int) (*pass, error) {
	ps := &pass{p: p, chk: &checker{}}
	for k := 0; k < n; k++ {
		b, err := ps.runBuild(w, filepath.Join(dir, fmt.Sprintf("build%d", k)), tr)
		if err != nil {
			return nil, err
		}
		ps.builds = append(ps.builds, b)
	}
	return ps, nil
}

// runBuild builds the system, runs the set-up admissions and the warm-up
// round untimed, then the timed sequence, and reads the final decisions.
func (ps *pass) runBuild(w *workload, dataDir string, tr *tracer) (*build, error) {
	p := ps.p
	t0 := time.Now()
	sys, err := startSystem(w, dataDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r := newRunner(w, sys, ps.chk)
	defer func() {
		// The build keeps its figures and log, not the system.
		sys.close()
		r.sys = nil
	}()
	if err := r.run(p.ops, 0, p.timedFrom, false); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if sys.replicated() {
		sys.setupTerm = sys.leader.rep.Status().Term
	}
	b := &build{r: r, setupS: time.Since(t0).Seconds()}

	if tr != nil {
		pr, err := newProber(tr, dataDir)
		if err != nil {
			return nil, err
		}
		defer pr.close()
		r.tr, r.pr, ps.pr = tr, pr, pr
	}
	runtime.GC()
	steal0, t0 := stealTicks(), time.Now()
	if err := r.run(p.ops, p.timedFrom, len(p.ops), true); err != nil {
		return nil, err
	}
	b.timedS = time.Since(t0).Seconds()
	b.steal = stealTicks() - steal0
	r.tr, r.pr = nil, nil

	if l := sys.leader; l.rep != nil {
		if ps.pr != nil {
			ps.entries = int64(l.rep.Status().LastIndex - ps.pr.startIndex)
			ps.logBytes = dirSize(l.dir) - ps.pr.startBytes
		}
		if info, err := os.Stat(filepath.Join(l.dir, "snapshot.json")); err == nil {
			ps.snapshotBytes = info.Size()
		}
		if tr != nil {
			for i := 0; i < advances; i++ {
				s := tr.begin("server.advance", -1)
				err := l.rep.Advance(r.vnow)
				tr.end(s)
				if err != nil {
					// The tick may have taken effect anyway (see README.md,
					// Found faults); the decision check then shows it.
					ps.advanceErrs = append(ps.advanceErrs, err.Error())
					continue
				}
				r.record(ctrlOp{kind: opTick})
			}
		}
	}

	if b.apps, b.obj, err = r.finalStatus(); err != nil {
		return nil, fmt.Errorf("final status: %w", err)
	}
	if sys.replicated() {
		// The leader's heartbeats carry the last commit point to the
		// followers.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := r.quiesce(ctx)
		cancel()
		if err != nil {
			ps.chk.failf("%v", err)
		}
		for i, m := range sys.members {
			if err := m.ctrl.Ledger().CheckConservation(); err != nil {
				ps.chk.failf("member %d at quiesce: %v", i, err)
			}
		}
		st := sys.leader.rep.Status()
		ps.elections = st.Term - sys.setupTerm
		if st.Role != "leader" || ps.elections != 0 {
			ps.chk.failf("leadership changed after set-up: role %s, %d new term(s)", st.Role, ps.elections)
		}
	}
	return b, nil
}

// verify replays the last build's controller operations serially and
// checks every build's final decisions, read over the wire, against the
// replay: the same operations must reach bit-identical decisions. A traced
// pass then replays them once more under the server's own Config, timing
// and counting every controller call, and times empty replicated ticks on
// a one-member replica wrapping that controller when the workload has no
// replicas of its own.
func (ps *pass) verify(w *workload, dir string, tr *tracer) error {
	t0 := time.Now()
	r := ps.last()
	var err error
	if ps.rp, err = replay(w, r.log, r.logTimed, 1, nil); err != nil {
		return err
	}
	ps.replayS = time.Since(t0).Seconds()
	for _, b := range ps.builds {
		checkDecisions(ps.chk, b.apps, b.obj, ps.rp.ctrl.Apps(), ps.rp.ctrl.Objective())
	}
	if tr == nil {
		return nil
	}
	if ps.core, err = replay(w, r.log, r.logTimed, 0, tr); err != nil {
		return err
	}
	if !w.replicated {
		return advanceOneMember(ps, dir, r.vnow, tr)
	}
	return nil
}

// stealTicks reads the machine's total steal time from /proc/stat (0 where
// there is none to read). The latencies of this benchmark follow it.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// advanceOneMember times empty replicated ticks over a workload served by
// a single server: a one-member replica (durable log in dir) wraps the
// replayed controller, which holds the same state. A failed tick is
// recorded and the next one is tried.
func advanceOneMember(ps *pass, dir string, now time.Duration, tr *tracer) error {
	rep, err := server.NewReplica("127.0.0.1:0", server.ReplicaConfig{
		Controller: ps.core.ctrl,
		DataDir:    filepath.Join(dir, "one-member"),
	})
	if err != nil {
		return err
	}
	defer rep.Close()
	deadline := time.Now().Add(electionWait)
	for !rep.IsLeader() || rep.Status().CommitIndex < 1 {
		if time.Now().After(deadline) {
			return errors.New("one-member replica did not commit its first entry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < advances; i++ {
		s := tr.begin("server.advance", -1)
		err := rep.Advance(now)
		tr.end(s)
		if err != nil {
			ps.advanceErrs = append(ps.advanceErrs, err.Error())
		}
	}
	return nil
}
