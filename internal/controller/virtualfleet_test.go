package controller

import (
	"context"
	"testing"
	"time"

	"tsu/internal/core"
	"tsu/internal/netem"
	"tsu/internal/simclock"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
)

// TestDecentralizedVirtualClockFleet runs a full decentralized update
// over a switch fleet on a virtual clock: expiry sweeps and — crucially
// — the peer acks of decentralized execution ride clock timers instead
// of per-switch/per-ack goroutines. The update must converge to the new
// path with exactly one peer message per cross-switch DAG edge, and
// the modelled latencies must show up in virtual time.
func TestDecentralizedVirtualClockFleet(t *testing.T) {
	sim := simclock.NewSim(time.Time{})
	stopDriver := sim.AutoAdvance(200 * time.Microsecond)
	defer stopDriver()

	g := topo.Fig1()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl, err := New(Config{Topology: g, Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabric := switchsim.NewFabric(g)
	for _, n := range g.Nodes() {
		sw, err := switchsim.NewSwitch(fabric, switchsim.Config{
			Node:           n,
			InstallLatency: netem.Fixed(2 * time.Millisecond),
			PeerLatency:    netem.Fixed(500 * time.Microsecond),
			Clock:          sim,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Connect(ctx, addr); err != nil {
			t.Fatal(err)
		}
		defer sw.Stop()
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if err := ctrl.WaitForSwitches(waitCtx, g.NumNodes()); err != nil {
		t.Fatal(err)
	}

	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	p, err := core.PlanByName(in, "peacock", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	installCtx, installCancel := context.WithTimeout(ctx, 60*time.Second)
	defer installCancel()
	if err := ctrl.InstallPath(installCtx, in.Old, flowMatch("10.0.0.2"), "h2"); err != nil {
		t.Fatal(err)
	}
	job, err := ctrl.Engine().SubmitPlan(in, p, flowMatch("10.0.0.2"), SubmitOptions{Mode: ModeDecentralized})
	if err != nil {
		t.Fatal(err)
	}
	jobCtx, jobCancel := context.WithTimeout(ctx, 60*time.Second)
	defer jobCancel()
	if err := job.Wait(jobCtx); err != nil {
		t.Fatal(err)
	}
	if job.State() != JobDone {
		t.Fatalf("job state = %v (err %v)", job.State(), job.Err())
	}

	res := fabric.Inject(1, nwDstOf("10.0.0.2"), 64)
	if res.Outcome != switchsim.ProbeDelivered || !res.Visited.Equal(in.New) {
		t.Fatalf("post-update probe = %+v, want delivery via %v", res, in.New)
	}
	if got, want := len(job.Installs()), len(p.Nodes); got != want {
		t.Fatalf("installs = %d, want %d", got, want)
	}
	total, _ := job.Messages()
	if want := crossSwitchEdges(p); total.Peer != want {
		t.Fatalf("peer messages = %d, want %d (one per cross-switch edge)", total.Peer, want)
	}
	// Scheduled peer acks pay their latency on the virtual clock, so
	// the job's total virtual duration reflects the modelled delays.
	if got := job.TotalDuration(); got < 2*time.Millisecond {
		t.Fatalf("virtual total duration %v, want >= install latency", got)
	}
}
