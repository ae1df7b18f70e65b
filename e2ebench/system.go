package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/protocol"
	"harmony/internal/server"
	"harmony/internal/simclock"
)

// system is one built instance of the program under test: a single server
// or three replica members, plus the load generator's two connections. The
// controller keeps the daemon's defaults (greedy search, vet warn,
// EvalWorkers = GOMAXPROCS); nothing runs a wall-clock scheduler, lease
// sweeper or client heartbeat, so only the load generator moves the
// virtual clock.
type system struct {
	members []*member
	leader  *member
	// gen is the load generator's own protocol connection (single server):
	// it owns most instances, which one hclient.Client cannot (a Client
	// tracks a single instance). nil in replicated mode.
	gen *wireConn
	// apps are hclient sessions: on a single server apps[1] is the
	// application connection owning the workload's slot 0; in replicated
	// mode both run application lives.
	apps [2]*hclient.Client
	// setupTerm is the leader's term once set-up finished.
	setupTerm uint64
}

// member is one server, with its replica when replicated.
type member struct {
	ctrl  *core.Controller
	clock *simclock.Clock
	rep   *server.Replica
	srv   *server.Server
	dir   string
}

func (s *system) ctrl() *core.Controller     { return s.leader.ctrl }
func (s *system) clock() *simclock.Clock     { return s.leader.clock }
func (s *system) replicated() bool           { return s.leader.rep != nil }
func (s *system) conn(i int) *hclient.Client { return s.apps[i] }

func newMemberController(w *workload) (*core.Controller, *simclock.Clock, error) {
	cl, err := w.cluster()
	if err != nil {
		return nil, nil, err
	}
	clock := simclock.New()
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
	if err != nil {
		clock.Stop()
		return nil, nil, err
	}
	return ctrl, clock, nil
}

// startSystem builds the program for w. dataDir holds the replicas' durable
// logs (replicated mode only).
func startSystem(w *workload, dataDir string) (*system, error) {
	s := &system{}
	var err error
	if w.replicated {
		err = s.startReplicas(w, dataDir)
	} else {
		err = s.startServer(w)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) startServer(w *workload) error {
	ctrl, clock, err := newMemberController(w)
	if err != nil {
		return err
	}
	m := &member{ctrl: ctrl, clock: clock}
	s.members = []*member{m}
	s.leader = m
	if m.srv, err = server.Listen("127.0.0.1:0", server.Config{Controller: ctrl}); err != nil {
		return err
	}
	if s.gen, err = dialWire(m.srv.Addr()); err != nil {
		return err
	}
	if _, err = s.gen.call(&protocol.Message{Type: protocol.TypeStartup, AppID: "loadgen", UseInterrupts: true}); err != nil {
		return err
	}
	if s.apps[1], err = hclient.Dial(m.srv.Addr()); err != nil {
		return err
	}
	return s.apps[1].Startup("app", true)
}

// electionWait bounds how long set-up waits for a leader: several default
// election timeouts.
const electionWait = 10 * time.Second

func (s *system) startReplicas(w *workload, dataDir string) error {
	const n = 3
	peerLns := make([]net.Listener, n)
	clientLns := make([]net.Listener, n)
	closeLns := func(from int) {
		for i := from; i < n; i++ {
			for _, ln := range []net.Listener{peerLns[i], clientLns[i]} {
				if ln != nil {
					_ = ln.Close()
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		var err error
		if peerLns[i], err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
			clientLns[i], err = net.Listen("tcp", "127.0.0.1:0")
		}
		if err != nil {
			closeLns(0)
			return fmt.Errorf("replica listen: %w", err)
		}
	}
	peerAddrs := make([]string, n)
	for i, ln := range peerLns {
		peerAddrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, addr := range peerAddrs {
			if j != i {
				peers = append(peers, addr)
			}
		}
		ctrl, clock, err := newMemberController(w)
		if err != nil {
			closeLns(i)
			return err
		}
		m := &member{ctrl: ctrl, clock: clock, dir: filepath.Join(dataDir, fmt.Sprintf("member%d", i))}
		s.members = append(s.members, m)
		m.rep, err = server.NewReplicaFromListener(peerLns[i], server.ReplicaConfig{
			ID:         peerAddrs[i],
			Peers:      peers,
			ClientAddr: clientLns[i].Addr().String(),
			Controller: ctrl,
			DataDir:    m.dir,
		})
		peerLns[i] = nil
		if err != nil {
			closeLns(i)
			return err
		}
		m.srv, err = server.Serve(clientLns[i], server.Config{Controller: ctrl, Replica: m.rep})
		clientLns[i] = nil
		if err != nil {
			closeLns(i + 1)
			return err
		}
	}
	deadline := time.Now().Add(electionWait)
	for s.leader == nil {
		for _, m := range s.members {
			if m.rep.IsLeader() {
				s.leader = m
			}
		}
		if s.leader == nil {
			if time.Now().After(deadline) {
				return errors.New("no replica was elected leader")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	addr := s.leader.rep.Status().Leader
	for i := range s.apps {
		var err error
		if s.apps[i], err = hclient.Dial(addr); err != nil {
			return err
		}
	}
	return nil
}

// close stops everything startSystem started and waits for it.
func (s *system) close() {
	for _, c := range s.apps {
		if c != nil {
			_ = c.Close()
		}
	}
	if s.gen != nil {
		_ = s.gen.close()
	}
	for _, m := range s.members {
		if m.srv != nil {
			_ = m.srv.Close()
		}
		if m.rep != nil {
			_ = m.rep.Close()
		}
		if m.ctrl != nil {
			m.ctrl.Stop()
		}
		if m.clock != nil {
			m.clock.Stop()
		}
		if m.dir != "" {
			_ = os.RemoveAll(m.dir)
		}
	}
}

// wireConn is a bare protocol client: one request in flight, pushed
// updates for the instances it owns skipped while it waits for a reply.
type wireConn struct {
	nc  net.Conn
	w   *protocol.Writer
	r   *protocol.Reader
	seq uint64
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireConn{nc: nc, w: protocol.NewWriter(nc), r: protocol.NewReader(nc)}, nil
}

func (c *wireConn) call(m *protocol.Message) (*protocol.Message, error) {
	c.seq++
	m.Seq = c.seq
	if err := c.w.Write(m); err != nil {
		return nil, err
	}
	for {
		reply, err := c.r.Read()
		if err != nil {
			return nil, err
		}
		if reply.Type == protocol.TypeUpdate {
			continue
		}
		if reply.Seq != m.Seq {
			return nil, fmt.Errorf("%s: reply seq %d, want %d", m.Type, reply.Seq, m.Seq)
		}
		if reply.Type == protocol.TypeError {
			return nil, fmt.Errorf("%s: server: %s", m.Type, reply.Error)
		}
		return reply, nil
	}
}

func (c *wireConn) close() error { return c.nc.Close() }
