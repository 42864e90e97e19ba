// Package controller implements the SDN controller of the prototype:
// the Go counterpart of the paper's Ryu app "ofctl_rest_own.py". It
// accepts OpenFlow connections from switches, tracks datapaths, and
// executes policy updates as rounds of FlowMods delimited by barrier
// request/reply exchanges, exactly as §2 of the paper describes:
//
//	"In the current round, there are a set of switches which have to
//	be updated. The SDN controller retrieves the corresponding
//	OpenFlow message for every switch in the set and sends them out to
//	the switches. Later, the SDN controller sends a barrier request to
//	every switch of the set and waits for barrier replies. For every
//	barrier reply received by the SDN controller, it determines the
//	source switch. This switch is removed from the set of switches of
//	the current round [...]. If the set is empty, the current round
//	finishes and the SDN controller goes on to process the next round
//	[...]. If the message object does not have a next round, the SDN
//	controller deletes the message from the queue and starts
//	processing the next message."
//
// The REST API (rest.go) accepts the paper's update message schema.
package controller

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

	"tsu/internal/journal"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// Config parameterizes the controller.
type Config struct {
	// Topology is the shared network map; port numbers for FlowMod
	// actions are derived from its canonical port map.
	Topology *topo.Graph

	// FlowPriority is the priority used for policy rules (default 100).
	FlowPriority uint16

	// RoundTimeout bounds one round's barrier collection (default 30s).
	RoundTimeout time.Duration

	// EngineWorkers bounds how many conflict-free update jobs execute
	// concurrently (default 8); 1 restores the strictly serial engine
	// of the paper's demo.
	EngineWorkers int

	// DispatchShards sets the size of the engine's dispatch-shard pool
	// (default GOMAXPROCS). Each shard owns a stable subset of switch
	// connections (dpid mod shards) and coalesces the FlowMods and
	// barriers of concurrently released installs on the same connection
	// into single buffered writes.
	DispatchShards int

	// Clock is the time base for round timings and inter-round pauses.
	// Nil selects the wall clock; a simclock.Sim (driven by
	// Sim.AutoAdvance, with the switches on the same clock) runs
	// updates in virtual time — barriers still synchronize on real
	// message acks, but every modelled latency and every reported
	// RoundTiming elapses on the virtual clock.
	Clock simclock.Clock

	// Journal, when non-nil, makes the engine durable: job admissions,
	// per-node dispatch/confirm deltas, and terminal phases are
	// journaled write-ahead, and Engine.Recover replays them after a
	// restart. Nil runs the engine in-memory only.
	Journal *journal.Journal

	// Logger receives lifecycle events; nil discards them.
	Logger *slog.Logger
}

// Controller accepts switch connections and executes update jobs.
type Controller struct {
	cfg    Config
	ports  *topo.PortMap
	clock  simclock.Clock
	logger *slog.Logger

	mu        sync.Mutex
	listener  net.Listener
	datapaths map[uint64]*datapath
	dpWaiters []chan struct{}

	// planReports routes decoded decentralized completion reports to
	// the job waiting on them, keyed by job ID; stateReports routes
	// recovery state reports the same way.
	planMu       sync.Mutex
	planReports  map[int]chan<- *planwire.Report
	stateReports map[int]chan<- *planwire.StateReport

	flowRemoved atomic.Uint64

	// started anchors the /v1/healthz uptime report.
	started time.Time

	engine *Engine
}

// datapath is one connected switch.
type datapath struct {
	dpid uint64
	conn *ofconn.Conn

	mu        sync.Mutex
	sinks     map[uint32]barrierSink // every barrier waiter, resolved by xid
	statsWait map[uint32]chan []openflow.FlowStats
}

// New creates a controller for a topology.
func New(cfg Config) (*Controller, error) {
	if cfg.Topology == nil {
		return nil, errors.New("controller: topology required")
	}
	if cfg.FlowPriority == 0 {
		cfg.FlowPriority = 100
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := &Controller{
		cfg:       cfg,
		ports:     topo.NewPortMap(cfg.Topology),
		clock:     simclock.Or(cfg.Clock),
		logger:    cfg.Logger,
		datapaths: make(map[uint64]*datapath),
	}
	c.started = c.clock.Now()
	c.engine = newEngine(c, cfg.EngineWorkers)
	return c, nil
}

// Uptime reports how long the controller has been running, on its own
// clock (virtual under simclock).
func (c *Controller) Uptime() time.Duration { return c.clock.Now().Sub(c.started) }

// Start listens on addr ("127.0.0.1:0" for an ephemeral port), runs the
// accept loop and the update engine until ctx is cancelled, and returns
// the bound address.
func (c *Controller) Start(ctx context.Context, addr string) (string, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return "", fmt.Errorf("controller: listen: %w", err)
	}
	c.mu.Lock()
	c.listener = ln
	c.mu.Unlock()

	go func() {
		<-ctx.Done()
		ln.Close() //nolint:errcheck // unblocking accept
	}()
	go c.acceptLoop(ctx, ln)
	go c.engine.run(ctx)
	return ln.Addr().String(), nil
}

func (c *Controller) acceptLoop(ctx context.Context, ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				c.logger.Warn("accept failed", "err", err)
			}
			return
		}
		go c.serveSwitch(ctx, nc)
	}
}

func (c *Controller) serveSwitch(ctx context.Context, nc net.Conn) {
	conn := ofconn.New(nc)
	features, err := ofconn.HandshakeController(conn)
	if err != nil {
		c.logger.Warn("handshake failed", "peer", nc.RemoteAddr().String(), "err", err)
		conn.Close() //nolint:errcheck // already failing
		return
	}
	dp := &datapath{
		dpid:      features.DatapathID,
		conn:      conn,
		sinks:     make(map[uint32]barrierSink),
		statsWait: make(map[uint32]chan []openflow.FlowStats),
	}
	c.mu.Lock()
	if old, dup := c.datapaths[dp.dpid]; dup {
		old.conn.Close() //nolint:errcheck // superseded connection
	}
	c.datapaths[dp.dpid] = dp
	waiters := c.dpWaiters
	c.dpWaiters = nil
	c.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
	c.logger.Info("switch connected", "dpid", ofconn.FormatDpid(dp.dpid))

	unwatch := context.AfterFunc(ctx, func() {
		conn.Close() //nolint:errcheck // unblocking the reader
	})
	c.readLoop(ctx, dp)
	unwatch()

	c.mu.Lock()
	if c.datapaths[dp.dpid] == dp {
		delete(c.datapaths, dp.dpid)
	}
	c.mu.Unlock()
	conn.Close() //nolint:errcheck // loop exit
	c.logger.Info("switch disconnected", "dpid", ofconn.FormatDpid(dp.dpid))
}

func (c *Controller) readLoop(ctx context.Context, dp *datapath) {
	for {
		m, err := dp.conn.ReadMessage()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.logger.Warn("read failed", "dpid", dp.dpid, "err", err)
			}
			return
		}
		switch msg := m.(type) {
		case *openflow.BarrierReply:
			// Every barrier resolves through its sink: the reply becomes
			// a plain ack value in the waiter's channel — no goroutine
			// ever waits per barrier. A reply nobody registered (a
			// duplicate, or one whose waiter gave up) is dropped.
			xid := msg.Xid()
			dp.mu.Lock()
			s, ok := dp.sinks[xid]
			delete(dp.sinks, xid)
			dp.mu.Unlock()
			if ok {
				c.engine.disp.deliver(s, c.clock.Now())
			}
		case *openflow.StatsReply:
			dp.mu.Lock()
			ch := dp.statsWait[msg.Xid()]
			delete(dp.statsWait, msg.Xid())
			dp.mu.Unlock()
			if ch != nil {
				ch <- msg.Flows
			}
		case *openflow.EchoRequest:
			reply := &openflow.EchoReply{Data: msg.Data}
			reply.SetXid(msg.Xid())
			if err := dp.conn.WriteMessage(reply); err != nil {
				return
			}
		case *openflow.FlowRemoved:
			c.flowRemoved.Add(1)
			c.logger.Info("flow removed", "dpid", dp.dpid,
				"nw_dst", msg.Match.NWDstIP().String(), "reason", msg.Reason)
		case *openflow.PortStatus:
			c.logger.Info("port status", "dpid", dp.dpid,
				"port", msg.Port.PortNo, "reason", msg.Reason)
		case *openflow.Vendor:
			if msg.Vendor != planwire.VendorID {
				c.logger.Warn("unknown vendor message", "dpid", dp.dpid, "vendor", msg.Vendor)
				continue
			}
			if planwire.IsStateReport(msg.Data) {
				sr, err := planwire.DecodeStateReport(msg.Data)
				if err != nil {
					c.logger.Warn("malformed state report", "dpid", dp.dpid, "err", err)
					continue
				}
				c.planMu.Lock()
				ch := c.stateReports[sr.Job]
				c.planMu.Unlock()
				if ch == nil {
					c.logger.Warn("state report for unknown job", "dpid", dp.dpid, "job", sr.Job)
					continue
				}
				select {
				case ch <- sr: // buffered for one report per queried switch
				default:
					c.logger.Warn("dropping surplus state report", "dpid", dp.dpid, "job", sr.Job)
				}
				continue
			}
			r, err := planwire.DecodeReport(msg.Data)
			if err != nil {
				c.logger.Warn("malformed completion report", "dpid", dp.dpid, "err", err)
				continue
			}
			c.planMu.Lock()
			ch := c.planReports[r.Job]
			c.planMu.Unlock()
			if ch == nil {
				c.logger.Warn("completion report for unknown job", "dpid", dp.dpid, "job", r.Job)
				continue
			}
			select {
			case ch <- r: // buffered for one report per switch
			default: // more reports than switches: drop rather than stall the read loop
				c.logger.Warn("dropping surplus completion report", "dpid", dp.dpid, "job", r.Job)
			}
		case *openflow.Error:
			c.logger.Warn("switch reported error", "dpid", dp.dpid, "err", msg.Error())
		default:
			c.logger.Warn("unexpected message", "dpid", dp.dpid, "type", m.MsgType().String())
		}
	}
}

// Datapaths returns the connected datapath IDs in ascending order.
func (c *Controller) Datapaths() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, len(c.datapaths))
	for dpid := range c.datapaths {
		out = append(out, dpid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// WaitForSwitches blocks until at least n switches are connected.
func (c *Controller) WaitForSwitches(ctx context.Context, n int) error {
	for {
		c.mu.Lock()
		have := len(c.datapaths)
		var waiter chan struct{}
		if have < n {
			waiter = make(chan struct{})
			c.dpWaiters = append(c.dpWaiters, waiter)
		}
		c.mu.Unlock()
		if waiter == nil {
			return nil
		}
		select {
		case <-waiter:
		case <-ctx.Done():
			return fmt.Errorf("controller: waiting for %d switches (%d connected): %w", n, have, ctx.Err())
		}
	}
}

func (c *Controller) datapath(dpid uint64) (*datapath, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dp, ok := c.datapaths[dpid]
	if !ok {
		return nil, fmt.Errorf("controller: datapath %d not connected", dpid)
	}
	return dp, nil
}

// SendFlowMod sends a FlowMod to a switch (fire and forget; ordering
// and completion are enforced with Barrier).
func (c *Controller) SendFlowMod(dpid uint64, fm *openflow.FlowMod) error {
	dp, err := c.datapath(dpid)
	if err != nil {
		return err
	}
	_, err = dp.conn.Send(fm)
	return err
}

// SendVendor sends a vendor/experimenter message carrying an opaque
// planwire payload to a switch — the decentralized engine's partition
// push channel.
func (c *Controller) SendVendor(dpid uint64, data []byte) error {
	dp, err := c.datapath(dpid)
	if err != nil {
		return err
	}
	_, err = dp.conn.Send(&openflow.Vendor{Vendor: planwire.VendorID, Data: data})
	return err
}

// registerPlanReports directs completion reports for a job to ch.
func (c *Controller) registerPlanReports(job int, ch chan<- *planwire.Report) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.planReports == nil {
		c.planReports = make(map[int]chan<- *planwire.Report)
	}
	c.planReports[job] = ch
}

// unregisterPlanReports stops routing a job's completion reports.
func (c *Controller) unregisterPlanReports(job int) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	delete(c.planReports, job)
}

// registerStateReports directs recovery state reports for a job to ch.
func (c *Controller) registerStateReports(job int, ch chan<- *planwire.StateReport) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.stateReports == nil {
		c.stateReports = make(map[int]chan<- *planwire.StateReport)
	}
	c.stateReports[job] = ch
}

// unregisterStateReports stops routing a job's state reports.
func (c *Controller) unregisterStateReports(job int) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	delete(c.stateReports, job)
}

// Barrier sends a BARRIER_REQUEST to the switch and blocks until its
// reply arrives (or ctx expires) — the synchronization primitive that
// ends an update round.
func (c *Controller) Barrier(ctx context.Context, dpid uint64) error {
	reply := make(chan nodeAck, 1)
	drop, err := c.sendBarrier(dpid, barrierSink{acks: reply})
	if err != nil {
		return err
	}
	select {
	case <-reply:
		return nil
	case <-ctx.Done():
		drop()
		return fmt.Errorf("controller: barrier to %d: %w", dpid, ctx.Err())
	}
}

// sendBarrier registers s under a fresh xid on the switch's connection
// and writes a BARRIER_REQUEST; the read loop delivers the reply into
// s.acks. drop deregisters the sink for a waiter that gives up.
func (c *Controller) sendBarrier(dpid uint64, s barrierSink) (drop func(), err error) {
	dp, err := c.datapath(dpid)
	if err != nil {
		return nil, err
	}
	req := &openflow.BarrierRequest{}
	xid := dp.conn.NextXid()
	req.SetXid(xid)
	dp.mu.Lock()
	dp.sinks[xid] = s
	dp.mu.Unlock()
	drop = func() {
		dp.mu.Lock()
		delete(dp.sinks, xid)
		dp.mu.Unlock()
	}
	if err := dp.conn.WriteMessage(req); err != nil {
		drop()
		return nil, err
	}
	return drop, nil
}

// FlowStats fetches the switch's flow table contents.
func (c *Controller) FlowStats(ctx context.Context, dpid uint64) ([]openflow.FlowStats, error) {
	dp, err := c.datapath(dpid)
	if err != nil {
		return nil, err
	}
	req := &openflow.StatsRequest{
		Kind: openflow.StatsFlow,
		Flow: &openflow.FlowStatsRequest{
			Match:   openflow.Match{Wildcards: openflow.WildcardAll},
			TableID: 0xff,
			OutPort: openflow.PortNone,
		},
	}
	req.SetXid(dp.conn.NextXid())
	ch := make(chan []openflow.FlowStats, 1)
	dp.mu.Lock()
	dp.statsWait[req.Xid()] = ch
	dp.mu.Unlock()
	if err := dp.conn.WriteMessage(req); err != nil {
		dp.mu.Lock()
		delete(dp.statsWait, req.Xid())
		dp.mu.Unlock()
		return nil, err
	}
	select {
	case flows := <-ch:
		return flows, nil
	case <-ctx.Done():
		dp.mu.Lock()
		delete(dp.statsWait, req.Xid())
		dp.mu.Unlock()
		return nil, fmt.Errorf("controller: flow stats from %d: %w", dpid, ctx.Err())
	}
}

// PathFlowMod builds the FlowMod that makes switch `node` forward the
// flow toward `succ` (a neighboring switch on the path).
func (c *Controller) PathFlowMod(node, succ topo.NodeID, match openflow.Match, cmd openflow.FlowModCommand) (*openflow.FlowMod, error) {
	port := c.ports.Port(node, succ)
	if port == 0 {
		return nil, fmt.Errorf("controller: no port from %d to %d in topology", node, succ)
	}
	return &openflow.FlowMod{
		Match:    match,
		Command:  cmd,
		Priority: c.cfg.FlowPriority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}, nil
}

// HostFlowMod builds the FlowMod that makes the destination switch
// deliver the flow to its attached host.
func (c *Controller) HostFlowMod(node topo.NodeID, host string, match openflow.Match, cmd openflow.FlowModCommand) (*openflow.FlowMod, error) {
	port, ok := c.ports.HostPort[node][host]
	if !ok {
		return nil, fmt.Errorf("controller: host %q not attached to switch %d", host, node)
	}
	return &openflow.FlowMod{
		Match:    match,
		Command:  cmd,
		Priority: c.cfg.FlowPriority,
		BufferID: openflow.NoBuffer,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{openflow.ActionOutput{Port: port}},
	}, nil
}

// InstallPath installs the flow's rules along a path: every switch
// forwards to its successor and the final switch delivers to host. It
// barriers every touched switch before returning, so the policy is
// fully active afterwards.
func (c *Controller) InstallPath(ctx context.Context, path topo.Path, match openflow.Match, host string) error {
	if err := path.Validate(); err != nil {
		return err
	}
	for i := 0; i+1 < len(path); i++ {
		fm, err := c.PathFlowMod(path[i], path[i+1], match, openflow.FlowAdd)
		if err != nil {
			return err
		}
		if err := c.SendFlowMod(uint64(path[i]), fm); err != nil {
			return err
		}
	}
	if host != "" {
		fm, err := c.HostFlowMod(path.Dst(), host, match, openflow.FlowAdd)
		if err != nil {
			return err
		}
		if err := c.SendFlowMod(uint64(path.Dst()), fm); err != nil {
			return err
		}
	}
	for _, n := range path {
		if err := c.Barrier(ctx, uint64(n)); err != nil {
			return err
		}
	}
	return nil
}

// Engine returns the update engine (job queue).
func (c *Controller) Engine() *Engine { return c.engine }

// Ports exposes the canonical port map.
func (c *Controller) Ports() *topo.PortMap { return c.ports }

// FlowRemovedCount returns how many FLOW_REMOVED notifications have
// arrived across all switches (entries expiring by idle/hard timeout).
func (c *Controller) FlowRemovedCount() uint64 { return c.flowRemoved.Load() }
