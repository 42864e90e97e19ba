package switchsim

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"tsu/internal/netem"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/simclock"
	"tsu/internal/topo"
)

// fakeController accepts switch connections, runs the controller-side
// handshake, and records every FLOW_REMOVED per datapath — just enough
// controller for switch-layout tests that need a live control channel.
type fakeController struct {
	addr string

	mu      sync.Mutex
	removed map[uint64]int
}

func newFakeController(t *testing.T, ctx context.Context) *fakeController {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	fc := &fakeController{addr: ln.Addr().String(), removed: make(map[uint64]int)}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := ofconn.New(nc)
				defer conn.Close()
				fr, err := ofconn.HandshakeController(conn)
				if err != nil {
					return
				}
				for {
					m, err := conn.ReadMessage()
					if err != nil {
						return
					}
					if _, ok := m.(*openflow.FlowRemoved); ok {
						fc.mu.Lock()
						fc.removed[fr.DatapathID]++
						fc.mu.Unlock()
					}
				}
			}()
		}
	}()
	return fc
}

func (fc *fakeController) removedCount(dpid uint64) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.removed[dpid]
}

// settledGoroutines gives just-spawned goroutines a few scheduler
// turns to start or exit, then counts them.
func settledGoroutines() int {
	for i := 0; i < 50; i++ {
		runtime.Gosched()
	}
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestSwitchLayoutOneGoroutinePerSwitch connects a fleet on the wall
// clock and on a virtual clock and pins the switch layout: each
// connected switch keeps exactly one goroutine (its blocking reader)
// while expiry sweeps run on clock timers; a hard-timeout rule still
// expires and surfaces as FLOW_REMOVED; and Stop leaves neither a
// goroutine nor a pending sweep timer behind.
func TestSwitchLayoutOneGoroutinePerSwitch(t *testing.T) {
	for _, virtual := range []bool{false, true} {
		name := "wall-clock"
		if virtual {
			name = "virtual-clock"
		}
		t.Run(name, func(t *testing.T) {
			var sim *simclock.Sim
			var clock simclock.Clock
			if virtual {
				sim = simclock.NewSim(time.Time{})
				clock = sim
			}
			g := topo.Grid(8, 8)
			n := g.NumNodes()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fc := newFakeController(t, ctx)
			base := settledGoroutines()

			fabric := NewFabric(g)
			sws := make([]*Switch, 0, n)
			for i, node := range g.Nodes() {
				// Only the first switch sweeps fast: on the wall clock every
				// timer fire is a short-lived goroutine, and 64 fast sweeps
				// would blur the count below.
				unit := time.Minute
				if i == 0 {
					unit = 50 * time.Millisecond
				}
				sw, err := NewSwitch(fabric, Config{Node: node, TimeoutUnit: unit, Clock: clock})
				if err != nil {
					t.Fatal(err)
				}
				if err := sw.Connect(ctx, fc.addr); err != nil {
					t.Fatal(err)
				}
				sws = append(sws, sw)
			}
			// One reader per switch plus the fake controller's one
			// handler per connection; a little slack for a wall-clock
			// sweep timer caught mid-fire.
			if grown := settledGoroutines() - base; grown > 2*n+4 {
				t.Fatalf("%d connected switches added %d goroutines, want <= %d (one per switch + one controller handler each)",
					n, grown, 2*n+4)
			}
			if virtual && sim.Pending() != n {
				t.Fatalf("virtual clock holds %d pending timers, want %d (one expiry sweep per switch)", sim.Pending(), n)
			}

			// The timer-driven sweep still expires flows.
			sw := sws[0]
			fme := fm(openflow.FlowAdd, "10.0.0.2", 100, 3)
			fme.HardTimeout = 1
			fme.Flags = openflow.FlagSendFlowRem
			if oferr := sw.Table().Apply(fme); oferr != nil {
				t.Fatalf("apply: %v", oferr)
			}
			if virtual {
				// Two timeout units of virtual time: the sweeps fire in
				// this goroutine, period by period.
				sim.Advance(100 * time.Millisecond)
				if sw.Table().Len() != 0 {
					t.Fatal("hard-timeout rule survived two timeout units of virtual time")
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for fc.removedCount(sw.DatapathID()) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("expiry sweep never delivered FLOW_REMOVED")
				}
				time.Sleep(5 * time.Millisecond)
			}

			for _, sw := range sws {
				sw.Stop()
			}
			if virtual && sim.Pending() != 0 {
				t.Fatalf("%d timers still pending on the virtual clock after Stop", sim.Pending())
			}
			// The fake controller's handlers exit on EOF, so the count
			// returns to the baseline.
			deadline = time.Now().Add(5 * time.Second)
			for {
				left := settledGoroutines() - base
				if left <= 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left behind after Stop", left)
				}
			}
		})
	}
}

// TestFabricQuiesceWaitsForDelayedAcks pins Fabric.Quiesce on a virtual
// clock: a peer ack with hop latency is in flight until the clock
// passes its delivery time, and Quiesce returns exactly then.
func TestFabricQuiesceWaitsForDelayedAcks(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	g := topo.Linear(2)
	f := NewFabric(g)
	var sws []*Switch
	for _, n := range g.Nodes() {
		sw, err := NewSwitch(f, Config{Node: n, Clock: sim, PeerLatency: netem.Fixed(time.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		sws = append(sws, sw)
	}
	from, to := sws[0], sws[1]
	f.deliverPeerAck(from, to.NodeID(), PeerAck{Job: 7, From: from.NodeID(), ToNode: 1}, 0)

	short, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := f.Quiesce(short); err == nil {
		t.Fatal("Quiesce returned with an ack still in flight")
	}
	quiesced := make(chan error, 1)
	go func() { quiesced <- f.Quiesce(context.Background()) }()
	sim.Advance(time.Millisecond)
	if err := <-quiesced; err != nil {
		t.Fatal(err)
	}
	to.agent.mu.Lock()
	early := len(to.agent.early[7])
	to.agent.mu.Unlock()
	if early != 1 {
		t.Fatalf("target agent buffered %d acks for job 7, want 1", early)
	}
}
