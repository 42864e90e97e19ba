package switchsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/metrics"
	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// Faults injects switch misbehaviour for robustness testing. The
// boolean fields are deterministic always-on faults; the netem.Faults
// fields draw per-message fates from the switch's seeded Source, so a
// fixed seed pins the exact fault sequence.
type Faults struct {
	// DropBarriers makes the switch process barrier requests without
	// ever replying — the controller's round must time out.
	DropBarriers bool

	// DisconnectAfterFlowMods closes the control connection after the
	// N-th FlowMod has been applied (0 disables) — a mid-update switch
	// crash. The count includes FlowMods applied by the plan agent in
	// decentralized mode; the crash fires at most once per switch.
	DisconnectAfterFlowMods uint64

	// WipeTableOnCrash makes a DisconnectAfterFlowMods crash also
	// erase the flow table — the switch reconnects with the state of a
	// power-cycled box instead of a dropped TCP session.
	WipeTableOnCrash bool

	// DropPeerAcks makes the plan agent install its nodes but never
	// notify DAG successors — a decentralized job stalls and must
	// surface as a controller-side round timeout.
	DropPeerAcks bool

	// DuplicatePeerAcks sends every peer ack twice, exercising the
	// receiving agent's idempotence.
	DuplicatePeerAcks bool

	// FlowModFaults probabilistically corrupts the control channel's
	// FlowMod deliveries: Drop loses the message before the switch
	// processes it (a later barrier still replies — the switch never
	// knew), Dup applies it twice (OF 1.0 mods are idempotent),
	// Reordered holds it back by the drawn delay so control messages
	// behind it take effect first in wall/virtual time.
	FlowModFaults netem.Faults

	// BarrierFaults corrupts barrier replies: Drop swallows the reply
	// (the probabilistic cousin of DropBarriers), Dup sends it twice,
	// Reordered delays it.
	BarrierFaults netem.Faults

	// PeerAckFaults corrupts the plan agent's switch-to-switch acks:
	// the probabilistic generalization of DropPeerAcks and
	// DuplicatePeerAcks, plus reordering.
	PeerAckFaults netem.Faults
}

// Config parameterizes a simulated switch.
type Config struct {
	// Node is the switch's topology identity; the OpenFlow datapath ID
	// equals uint64(Node), matching the demo's integer datapath naming.
	Node topo.NodeID

	// InstallLatency delays each FlowMod before it takes effect in the
	// flow table (rule-installation cost; PAM'15-shaped distributions
	// recommended). Nil means instantaneous.
	InstallLatency netem.Latency

	// CtrlLatency delays every inbound control message before
	// processing, modelling control-channel propagation and switch
	// queueing. Per-switch variation of this latency is the asynchrony
	// that reorders updates across switches. Nil means none.
	CtrlLatency netem.Latency

	// PeerLatency delays each switch-to-switch plan-agent message (the
	// acks of decentralized execution) — a data-plane hop, typically
	// orders of magnitude below CtrlLatency. Nil means none.
	PeerLatency netem.Latency

	// Source provides the deterministic randomness for the latency
	// distributions; nil creates a per-switch source seeded by the
	// node ID.
	Source *netem.Source

	// Faults optionally injects misbehaviour (dropped barriers,
	// mid-update disconnects).
	Faults Faults

	// TimeoutUnit scales flow-entry idle/hard timeouts (the OpenFlow
	// spec counts them in seconds; simulations shrink the unit). Zero
	// selects one second.
	TimeoutUnit time.Duration

	// Clock is the time base for latencies, flow-entry timestamps and
	// timeout expiry. Nil selects the wall clock; a simclock.Sim puts
	// the whole switch on virtual time (its latencies then elapse only
	// when the simulation advances). When Source is also set, the
	// source's own clock wins for latency sleeps.
	Clock simclock.Clock

	// Logger receives connection lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Switch is one simulated OpenFlow switch.
type Switch struct {
	cfg    Config
	fabric *Fabric
	table  *FlowTable
	src    *netem.Source
	clock  simclock.Clock
	logger *slog.Logger
	agent  *planAgent

	flowModsApplied atomic.Uint64
	barriersSeen    atomic.Uint64
	packetOutsSeen  atomic.Uint64
	crashed         atomic.Bool

	mu     sync.Mutex
	conn   *ofconn.Conn
	cancel context.CancelFunc
	done   chan struct{}
}

// NewSwitch creates a switch and registers it on the fabric.
func NewSwitch(f *Fabric, cfg Config) (*Switch, error) {
	clock := simclock.Or(cfg.Clock)
	src := cfg.Source
	if src == nil {
		src = netem.NewSourceClock(int64(cfg.Node), clock)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	table := &FlowTable{}
	table.SetNow(clock.Now)
	s := &Switch{
		cfg:    cfg,
		fabric: f,
		table:  table,
		src:    src,
		clock:  clock,
		logger: logger.With("dpid", uint64(cfg.Node)),
	}
	s.agent = newPlanAgent(s)
	if err := f.register(s); err != nil {
		return nil, err
	}
	return s, nil
}

// NodeID returns the switch's topology identity.
func (s *Switch) NodeID() topo.NodeID { return s.cfg.Node }

// DatapathID returns the OpenFlow datapath identifier.
func (s *Switch) DatapathID() uint64 { return uint64(s.cfg.Node) }

// Table exposes the live flow table (data plane and tests read it).
func (s *Switch) Table() *FlowTable { return s.table }

// FlowModsApplied returns how many FlowMods have taken effect.
func (s *Switch) FlowModsApplied() uint64 { return s.flowModsApplied.Load() }

// BarriersSeen returns how many barrier requests were answered.
func (s *Switch) BarriersSeen() uint64 { return s.barriersSeen.Load() }

// PacketOutsSeen returns how many packet-out injections were started.
func (s *Switch) PacketOutsSeen() uint64 { return s.packetOutsSeen.Load() }

// features builds the switch's FEATURES_REPLY body from the fabric's
// port map.
func (s *Switch) features() *openflow.FeaturesReply {
	fr := &openflow.FeaturesReply{
		DatapathID: s.DatapathID(),
		NBuffers:   256,
		NTables:    1,
	}
	pm := s.fabric.Ports()
	for port, nb := range pm.PortNeighbor[s.cfg.Node] {
		fr.Ports = append(fr.Ports, openflow.PhyPort{
			PortNo: port,
			Name:   fmt.Sprintf("s%d-eth%d", s.cfg.Node, port),
			HWAddr: portHWAddr(s.DatapathID(), port),
			Peer:   uint32(nb),
		})
	}
	for port, host := range pm.PortHost[s.cfg.Node] {
		fr.Ports = append(fr.Ports, openflow.PhyPort{
			PortNo: port,
			Name:   fmt.Sprintf("s%d-%s", s.cfg.Node, host),
			HWAddr: portHWAddr(s.DatapathID(), port),
		})
	}
	return fr
}

func portHWAddr(dpid uint64, port uint16) [6]byte {
	return [6]byte{0x02, byte(dpid >> 16), byte(dpid >> 8), byte(dpid), byte(port >> 8), byte(port)}
}

// Connect dials the controller, runs the switch-side handshake, and
// starts the control loop in a background goroutine — the one
// goroutine a connected switch keeps: expiry sweeps and delayed peer
// acks run on clock timers, and context cancellation closes the
// connection through context.AfterFunc. It returns once the handshake
// completed. Stop (or ctx cancellation) terminates the loop.
func (s *Switch) Connect(ctx context.Context, controllerAddr string) error {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", controllerAddr)
	if err != nil {
		return fmt.Errorf("switchsim: dialing controller: %w", err)
	}
	conn := ofconn.New(nc)
	if err := ofconn.HandshakeSwitch(conn, s.features()); err != nil {
		conn.Close() //nolint:errcheck // already failing
		return fmt.Errorf("switchsim: handshake: %w", err)
	}
	loopCtx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})

	s.mu.Lock()
	s.conn = conn
	s.cancel = cancel
	s.done = done
	s.mu.Unlock()

	// Tear the connection down when the context dies so the blocking
	// read returns.
	unwatch := context.AfterFunc(loopCtx, func() {
		conn.Close() //nolint:errcheck // unblocking the reader
	})
	sweep := s.startExpirySweep(conn)
	go func() {
		defer close(done)
		defer conn.Close() //nolint:errcheck // loop exit path
		defer unwatch()
		defer sweep.halt()
		s.controlLoop(loopCtx, conn)
	}()
	return nil
}

// timeoutUnit returns the configured flow-timeout unit (one second by
// default).
func (s *Switch) timeoutUnit() time.Duration {
	if s.cfg.TimeoutUnit > 0 {
		return s.cfg.TimeoutUnit
	}
	return time.Second
}

// expiryPeriod is the sweep cadence derived from the timeout unit.
func (s *Switch) expiryPeriod() time.Duration {
	period := s.timeoutUnit() / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	return period
}

// sweepExpiry runs one idle/hard-timeout sweep at the given instant
// and emits FLOW_REMOVED for expired entries that asked for it.
func (s *Switch) sweepExpiry(conn *ofconn.Conn, now time.Time) error {
	expired, reasons := s.table.ExpireEntries(now, s.timeoutUnit())
	for i, e := range expired {
		if e.Flags&openflow.FlagSendFlowRem == 0 {
			continue
		}
		age := e.Age(now)
		fr := &openflow.FlowRemoved{
			Match:        e.Match,
			Cookie:       e.Cookie,
			Priority:     e.Priority,
			Reason:       reasons[i],
			DurationSec:  uint32(age / time.Second),
			DurationNsec: uint32(age % time.Second),
			IdleTimeout:  e.IdleTimeout,
			PacketCount:  e.PacketCount,
			ByteCount:    e.ByteCount,
		}
		if _, err := conn.Send(fr); err != nil {
			return err
		}
	}
	return nil
}

// expirySweep is a connection's self-re-arming expiry timer: each
// fire sweeps the table and arms the next one a period later, on the
// switch's clock (virtual time under a simclock.Sim).
type expirySweep struct {
	s      *Switch
	conn   *ofconn.Conn
	period time.Duration

	mu     sync.Mutex
	stop   func() bool
	halted bool
}

func (s *Switch) startExpirySweep(conn *ofconn.Conn) *expirySweep {
	w := &expirySweep{s: s, conn: conn, period: s.expiryPeriod()}
	w.mu.Lock()
	w.stop = s.clock.AfterFunc(w.period, w.fire)
	w.mu.Unlock()
	return w
}

func (w *expirySweep) fire() {
	if w.s.sweepExpiry(w.conn, w.s.clock.Now()) != nil {
		return // connection dead; the control loop is exiting
	}
	w.mu.Lock()
	if !w.halted {
		w.stop = w.s.clock.AfterFunc(w.period, w.fire)
	}
	w.mu.Unlock()
}

// halt cancels the pending sweep; a sweep already running finishes
// without re-arming.
func (w *expirySweep) halt() {
	w.mu.Lock()
	w.halted = true
	w.stop()
	w.mu.Unlock()
}

// crashIfDue fires the DisconnectAfterFlowMods crash once the applied
// count crosses the threshold, at most once per switch: the flow table
// is optionally wiped, the plan agent forgets its in-flight jobs (a
// dead process has no memory), and the caller must drop the control
// connection. Reconnecting afterwards works normally — the crash does
// not re-fire, so tests can model "dies after N installs, comes back
// with the table intact or wiped".
func (s *Switch) crashIfDue(applied uint64) bool {
	n := s.cfg.Faults.DisconnectAfterFlowMods
	if n == 0 || applied < n || !s.crashed.CompareAndSwap(false, true) {
		return false
	}
	metrics.FaultsInjected.Inc()
	if s.cfg.Faults.WipeTableOnCrash {
		s.table.Wipe()
	}
	s.agent.reset()
	s.logger.Warn("fault injection: switch crash",
		"after_flowmods", applied, "wiped", s.cfg.Faults.WipeTableOnCrash)
	return true
}

// dropConnection closes the live control connection — the crash as the
// controller observes it. The control loop's blocking read returns and
// the loop exits.
func (s *Switch) dropConnection() {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.Close() //nolint:errcheck // crash path
	}
}

// Connected reports whether the control loop from the most recent
// Connect is still running. False before the first Connect, after
// Stop, and once the controller side drops the connection — switch
// keepers poll this to know when to redial.
func (s *Switch) Connected() bool {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if done == nil {
		return false
	}
	select {
	case <-done:
		return false
	default:
		return true
	}
}

// Stop terminates the control loop and waits for it to exit. Safe to
// call multiple times or before Connect.
func (s *Switch) Stop() {
	s.mu.Lock()
	cancel, done := s.cancel, s.done
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
}

// controlLoop processes control messages strictly in order — the
// property that gives BARRIER_REQUEST its semantics: when the reply is
// sent, every earlier FlowMod has been applied.
func (s *Switch) controlLoop(ctx context.Context, conn *ofconn.Conn) {
	for {
		m, err := conn.ReadMessage()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logger.Warn("control connection read failed", "err", err)
			}
			return
		}
		// Control-channel latency: everything this switch does lags by
		// its own per-message delay, which is what desynchronizes
		// switches from each other.
		s.src.Sleep(s.cfg.CtrlLatency)

		if err := s.handle(conn, m); err != nil {
			s.logger.Warn("handling message failed", "type", m.MsgType().String(), "err", err)
			return
		}
		if ctx.Err() != nil {
			return
		}
	}
}

func (s *Switch) handle(conn *ofconn.Conn, m openflow.Message) error {
	switch msg := m.(type) {
	case *openflow.FlowMod:
		fd := s.src.Fault(s.cfg.Faults.FlowModFaults)
		if fd.Drop {
			// Lost on the channel before the switch processed it: the
			// rule never lands, yet a later barrier still replies — the
			// switch cannot acknowledge a message it never saw.
			metrics.FaultsInjected.Inc()
			return nil
		}
		if fd.Reordered {
			// The serial control loop cannot literally overtake itself;
			// holding the message (and everything behind it) back models
			// the rule taking effect later relative to other switches.
			metrics.FaultsInjected.Inc()
			s.clock.Sleep(fd.Delay)
		}
		applications := 1
		if fd.Dup {
			metrics.FaultsInjected.Inc()
			applications = 2
		}
		for i := 0; i < applications; i++ {
			s.src.Sleep(s.cfg.InstallLatency)
			if oferr := s.table.Apply(msg); oferr != nil {
				return conn.WriteMessage(oferr)
			}
		}
		// A duplicated delivery is still one logical FlowMod: the
		// counter (and the crash threshold keyed on it) counts messages.
		applied := s.flowModsApplied.Add(1)
		if s.crashIfDue(applied) {
			return fmt.Errorf("fault injection: disconnecting after %d flowmods", applied)
		}
		return nil
	case *openflow.BarrierRequest:
		s.barriersSeen.Add(1)
		if s.cfg.Faults.DropBarriers {
			return nil // fault injection: swallow the reply
		}
		fd := s.src.Fault(s.cfg.Faults.BarrierFaults)
		if fd.Drop {
			metrics.FaultsInjected.Inc()
			return nil
		}
		if fd.Reordered {
			metrics.FaultsInjected.Inc()
			s.clock.Sleep(fd.Delay)
		}
		reply := &openflow.BarrierReply{}
		reply.SetXid(msg.Xid())
		if err := conn.WriteMessage(reply); err != nil {
			return err
		}
		if fd.Dup {
			metrics.FaultsInjected.Inc()
			s.clock.Sleep(fd.Delay)
			return conn.WriteMessage(reply)
		}
		return nil
	case *openflow.EchoRequest:
		reply := &openflow.EchoReply{Data: msg.Data}
		reply.SetXid(msg.Xid())
		return conn.WriteMessage(reply)
	case *openflow.StatsRequest:
		reply := &openflow.StatsReply{Kind: openflow.StatsFlow, Flows: s.table.Stats()}
		reply.SetXid(msg.Xid())
		return conn.WriteMessage(reply)
	case *openflow.PacketOut:
		// The payload's first four bytes carry the flow's nw_dst (the
		// probe convention of this repository). OFPP_TABLE means "run
		// through my own flow table", i.e. start the data-plane walk
		// here; a concrete port starts it at that port's neighbor.
		if len(msg.Data) < 4 {
			return nil
		}
		nwDst := uint32(msg.Data[0])<<24 | uint32(msg.Data[1])<<16 | uint32(msg.Data[2])<<8 | uint32(msg.Data[3])
		start := s.cfg.Node
		if port, ok := outputPort(msg.Actions); ok && port != openflow.PortTable {
			next, isSwitch := s.fabric.Ports().PortNeighbor[s.cfg.Node][port]
			if !isSwitch {
				return nil // host port or invalid: nothing to walk
			}
			start = next
		}
		// Walk asynchronously: a packet in flight must not stall the
		// control loop (and hence barrier ordering).
		go s.fabric.Inject(start, nwDst, 4*s.fabric.Graph().NumNodes())
		s.packetOutsSeen.Add(1)
		return nil
	case *openflow.Vendor:
		// Decentralized execution: the controller pushes this switch's
		// plan partition once; the agent takes over from there.
		if msg.Vendor != planwire.VendorID {
			s.logger.Warn("unknown vendor message", "vendor", msg.Vendor)
			return nil
		}
		// Recovery handshake: a restarted controller asks what this
		// switch knows about a flow; answer from the live flow table
		// and the plan agent's memory.
		if planwire.IsStateQuery(msg.Data) {
			q, err := planwire.DecodeStateQuery(msg.Data)
			if err != nil {
				s.logger.Warn("bad state query", "err", err)
				e := &openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadType}
				e.SetXid(msg.Xid())
				return conn.WriteMessage(e)
			}
			rep := s.stateReport(q)
			v := &openflow.Vendor{Vendor: planwire.VendorID, Data: rep.Encode()}
			_, err = conn.Send(v)
			return err
		}
		push, err := planwire.DecodePush(msg.Data)
		if err != nil || push.Part.Switch != s.cfg.Node {
			s.logger.Warn("bad plan push", "err", err)
			e := &openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadType}
			e.SetXid(msg.Xid())
			return conn.WriteMessage(e)
		}
		s.agent.start(push, func(r *planwire.Report) error {
			v := &openflow.Vendor{Vendor: planwire.VendorID, Data: r.Encode()}
			_, err := conn.Send(v)
			return err
		})
		return nil
	case *openflow.Hello:
		return nil
	case *openflow.EchoReply, *openflow.BarrierReply, *openflow.Error:
		// Replies flowing switch-ward are controller bugs; log & drop.
		s.logger.Warn("unexpected reply on switch", "type", m.MsgType().String())
		return nil
	default:
		e := &openflow.Error{ErrType: openflow.ErrTypeBadRequest, Code: openflow.ErrCodeBadType}
		e.SetXid(m.Xid())
		return conn.WriteMessage(e)
	}
}

// stateReport answers a recovery StateQuery from local state only: the
// flow table (is a rule for the queried flow installed, and out which
// port does it forward?) and the plan agent's per-job completion
// memory. This local view is all a restarted controller needs to
// reconstruct the job's global order ideal.
func (s *Switch) stateReport(q *planwire.StateQuery) *planwire.StateReport {
	rep := &planwire.StateReport{
		Job:       q.Job,
		Switch:    s.cfg.Node,
		AgentDone: s.agent.doneNodes(q.Job),
	}
	ip := net.IPv4(byte(q.NWDst>>24), byte(q.NWDst>>16), byte(q.NWDst>>8), byte(q.NWDst))
	want := openflow.ExactNWDst(ip)
	for _, e := range s.table.Snapshot() {
		if e.Match != want {
			continue
		}
		rep.RulePresent = true
		for _, a := range e.Actions {
			if out, ok := a.(openflow.ActionOutput); ok {
				rep.OutPort = out.Port
				break
			}
		}
		break
	}
	return rep
}
