package switchsim

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// ProbeOutcome classifies a data-plane probe's fate.
type ProbeOutcome int

const (
	// ProbeDelivered: the probe reached a host port.
	ProbeDelivered ProbeOutcome = iota
	// ProbeDropped: a switch had no matching rule or an invalid port.
	ProbeDropped
	// ProbeTTLExceeded: the probe exceeded its hop budget (forwarding
	// loop).
	ProbeTTLExceeded
)

func (o ProbeOutcome) String() string {
	switch o {
	case ProbeDelivered:
		return "delivered"
	case ProbeDropped:
		return "dropped"
	case ProbeTTLExceeded:
		return "ttl-exceeded"
	}
	return "unknown"
}

// ProbeResult is the trace of one probe packet: every switch visited in
// order, the outcome, and the delivering host (when delivered).
type ProbeResult struct {
	Visited topo.Path
	Outcome ProbeOutcome
	Host    string
}

// VisitedBefore reports whether the probe crossed w before its final
// switch — the waypoint-enforcement predicate on delivered probes.
func (r *ProbeResult) VisitedBefore(w topo.NodeID) bool {
	for _, v := range r.Visited[:max(0, len(r.Visited)-1)] {
		if v == w {
			return true
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fabric is the in-memory data plane: it wires simulated switches
// according to the topology's canonical port map and walks probe
// packets hop by hop. Each hop reads the current flow table of the
// switch it is at — exactly like a real packet, a probe in flight
// observes whatever mixture of old and new rules the asynchronous
// update has produced so far.
type Fabric struct {
	graph *topo.Graph
	ports *topo.PortMap

	mu       sync.RWMutex
	switches map[topo.NodeID]*Switch

	// Peer acks sent but not yet handed to their target agent, and the
	// channel Quiesce waiters block on until that count drops to zero
	// (nil while nobody waits).
	peerMu       sync.Mutex
	peerInFlight int
	drained      chan struct{}
}

// NewFabric builds the data plane for a topology.
func NewFabric(g *topo.Graph) *Fabric {
	return &Fabric{
		graph:    g,
		ports:    topo.NewPortMap(g),
		switches: make(map[topo.NodeID]*Switch),
	}
}

// Ports exposes the canonical port map (shared with the controller).
func (f *Fabric) Ports() *topo.PortMap { return f.ports }

// Graph returns the wired topology.
func (f *Fabric) Graph() *topo.Graph { return f.graph }

// register attaches a switch to the fabric (called by NewSwitch).
func (f *Fabric) register(s *Switch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.graph.HasNode(s.NodeID()) {
		return fmt.Errorf("switchsim: switch %d not in topology", s.NodeID())
	}
	if _, dup := f.switches[s.NodeID()]; dup {
		return fmt.Errorf("switchsim: switch %d already registered", s.NodeID())
	}
	f.switches[s.NodeID()] = s
	return nil
}

// Switch returns the registered switch for a node, or nil.
func (f *Fabric) Switch(n topo.NodeID) *Switch {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.switches[n]
}

// deliverPeerAck carries one plan-agent ack from one switch to
// another. The hop latency is drawn from the sender's source at send
// time (a data-plane hop, not a controller round trip) and any
// injected extra delay (fault reordering) is added; an ack due now is
// handed to the target's agent at once, a later one by a timer on the
// sender's clock. Delivery order across concurrent acks is whatever
// the latencies produce — the receiving agent is built to absorb
// reordering and duplication.
func (f *Fabric) deliverPeerAck(from *Switch, to topo.NodeID, ack PeerAck, extra time.Duration) {
	delay := from.src.Sample(from.cfg.PeerLatency) + extra
	f.peerMu.Lock()
	f.peerInFlight++
	f.peerMu.Unlock()
	deliver := func() {
		if tgt := f.Switch(to); tgt != nil {
			tgt.agent.deliver(ack)
		}
		f.peerMu.Lock()
		if f.peerInFlight--; f.peerInFlight == 0 && f.drained != nil {
			close(f.drained)
			f.drained = nil
		}
		f.peerMu.Unlock()
	}
	if delay <= 0 {
		deliver()
		return
	}
	from.clock.AfterFunc(delay, deliver)
}

// Quiesce blocks until no peer ack is in flight on the fabric (every
// ack sent so far has reached its target agent) or ctx ends. Tests
// call it before reading per-switch ack counters: a job can complete
// while duplicate or delayed acks are still on the wire.
func (f *Fabric) Quiesce(ctx context.Context) error {
	f.peerMu.Lock()
	if f.peerInFlight == 0 {
		f.peerMu.Unlock()
		return nil
	}
	if f.drained == nil {
		f.drained = make(chan struct{})
	}
	drained := f.drained
	f.peerMu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// probeSize is the byte size accounted per probe packet.
const probeSize = 64

// Inject walks an untagged probe for flow nwDst starting at switch
// `at` with the given hop budget. The walk is performed in the caller's
// goroutine; every hop consults the live flow table of the switch it
// reaches, and VLAN set/strip actions rewrite the probe in flight (the
// mechanism behind two-phase tagged updates).
func (f *Fabric) Inject(at topo.NodeID, nwDst uint32, ttl int) ProbeResult {
	var res ProbeResult
	pkt := openflow.UntaggedPacket(nwDst)
	cur := at
	for hops := 0; ; hops++ {
		sw := f.Switch(cur)
		if sw == nil {
			res.Outcome = ProbeDropped
			return res
		}
		res.Visited = append(res.Visited, cur)
		if hops >= ttl {
			res.Outcome = ProbeTTLExceeded
			return res
		}
		actions, ok := sw.Table().LookupKey(pkt, probeSize)
		if !ok {
			res.Outcome = ProbeDropped
			return res
		}
		port, ok := applyActions(actions, &pkt)
		if !ok {
			res.Outcome = ProbeDropped
			return res
		}
		if host, isHost := f.ports.PortHost[cur][port]; isHost {
			res.Outcome = ProbeDelivered
			res.Host = host
			return res
		}
		next, ok := f.ports.PortNeighbor[cur][port]
		if !ok {
			res.Outcome = ProbeDropped
			return res
		}
		cur = next
	}
}

// applyActions executes an action list against the packet in order and
// returns the first OUTPUT port reached (packet-field rewrites before
// it take effect, as in OpenFlow 1.0 action-list semantics).
func applyActions(actions []openflow.Action, pkt *openflow.PacketKey) (uint16, bool) {
	for _, a := range actions {
		switch act := a.(type) {
		case openflow.ActionSetVLAN:
			pkt.VLAN = act.VLAN
		case openflow.ActionStripVLAN:
			pkt.VLAN = openflow.VLANNone
		case openflow.ActionOutput:
			return act.Port, true
		}
	}
	return 0, false
}

// outputPort extracts the first OUTPUT action's port without applying
// field rewrites (used where only the forwarding target matters).
func outputPort(actions []openflow.Action) (uint16, bool) {
	for _, a := range actions {
		if out, ok := a.(openflow.ActionOutput); ok {
			return out.Port, true
		}
	}
	return 0, false
}
