package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"tsu/internal/api"
	"tsu/internal/client"
	"tsu/internal/controller"
	"tsu/internal/journal"
	"tsu/internal/netem"
	"tsu/internal/switchsim"
)

// deployment is one live system under test: the controller with its
// OpenFlow listener and /v1 REST API, one switchsim switch per node
// connected over loopback TCP, and the SDK client the load uses.
type deployment struct {
	ctrl     *controller.Controller
	fabric   *switchsim.Fabric
	switches []*switchsim.Switch
	client   *client.Client
	rest     *http.Server
	served   chan struct{} // closed when the REST server has stopped
	jl       *journal.Journal
	cancel   context.CancelFunc
}

// deploy starts the system with the defaults cmd/controller,
// cmd/switchd and experiments.NewBed use (no modelled latencies, wall
// clock), plus a journal file under dir when journaled, and installs
// every flow's initial policy through the REST API. It returns once
// the first update can be sent.
func deploy(sc *scenario, seed int64, journaled bool, dir string) (d *deployment, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	d = &deployment{cancel: cancel}
	defer func() {
		if err != nil {
			d.close() //nolint:errcheck // reporting the set-up error instead
		}
	}()
	cfg := controller.Config{Topology: sc.graph}
	if journaled {
		f, err := os.CreateTemp(dir, "journal-*.tsuj")
		if err != nil {
			return d, fmt.Errorf("creating journal file: %w", err)
		}
		f.Close() //nolint:errcheck // journal.Open reopens it
		if d.jl, err = journal.Open(f.Name()); err != nil {
			os.Remove(f.Name()) //nolint:errcheck // already failing
			return d, err
		}
		cfg.Journal = d.jl
	}
	if d.ctrl, err = controller.New(cfg); err != nil {
		return d, err
	}
	addr, err := d.ctrl.Start(ctx, "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.fabric = switchsim.NewFabric(sc.graph)
	for _, n := range sc.graph.Nodes() {
		sw, err := switchsim.NewSwitch(d.fabric, switchsim.Config{
			Node:   n,
			Source: netem.NewSource(seed*1000003 + int64(n)),
		})
		if err != nil {
			return d, err
		}
		d.switches = append(d.switches, sw)
		if err := sw.Connect(ctx, addr); err != nil {
			return d, err
		}
	}
	waitCtx, waitCancel := context.WithTimeout(ctx, 30*time.Second)
	defer waitCancel()
	if err := d.ctrl.WaitForSwitches(waitCtx, sc.graph.NumNodes()); err != nil {
		return d, err
	}
	ln, err := new(net.ListenConfig).Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.rest = &http.Server{Handler: d.ctrl.RESTHandler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.rest.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	d.client = client.New("http://" + ln.Addr().String())
	for _, fl := range sc.flows {
		req := api.PolicyRequest{Path: api.FromPath(fl.path), NWDst: fl.nwDst, Host: fl.host}
		if err := d.client.InstallPolicy(waitCtx, req); err != nil {
			return d, fmt.Errorf("installing the old policy of %s: %w", fl.nwDst, err)
		}
	}
	return d, nil
}

// close stops the REST server, the controller and every switch, and
// waits for the server and the switches to exit; the journal file is
// removed.
func (d *deployment) close() error {
	if d.rest != nil {
		d.rest.Close() //nolint:errcheck // shutdown path
		<-d.served
	}
	d.cancel()
	for _, sw := range d.switches {
		sw.Stop()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if d.jl == nil {
		return nil
	}
	return errors.Join(d.jl.Close(), os.Remove(d.jl.Path()))
}

// fleetCounters sums the switches' work counters.
type fleetCounters struct {
	flowMods, barriers uint64
}

func (d *deployment) counters() fleetCounters {
	var c fleetCounters
	for _, sw := range d.switches {
		c.flowMods += sw.FlowModsApplied()
		c.barriers += sw.BarriersSeen()
	}
	return c
}

// tableEntries sums the flow-table sizes over the fleet.
func (d *deployment) tableEntries() int {
	n := 0
	for _, sw := range d.switches {
		n += sw.Table().Len()
	}
	return n
}
