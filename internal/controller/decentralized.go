package controller

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"tsu/internal/core"
	"tsu/internal/journal"
	"tsu/internal/openflow"
	"tsu/internal/planwire"
	"tsu/internal/topo"
)

// ExecMode selects how a job's execution DAG is dispatched.
type ExecMode int

const (
	// ModeController (the default) keeps the controller in the loop for
	// every happens-before edge: FlowMods, a barrier per node, and a
	// release decision on each barrier reply. Every edge costs control-
	// channel round trips.
	ModeController ExecMode = iota

	// ModeDecentralized broadcasts each switch's plan partition once
	// and lets the switches run the DAG themselves: a switch installs a
	// node when all of its in-edge acks have arrived and notifies its
	// DAG successors peer-to-peer (ez-Segway style). The controller
	// hears back exactly once per switch — the terminal completion
	// report.
	ModeDecentralized
)

func (m ExecMode) String() string {
	switch m {
	case ModeController:
		return "controller"
	case ModeDecentralized:
		return "decentralized"
	}
	return "unknown"
}

// ParseExecMode maps a mode name to its ExecMode. The empty string is
// the default (controller-driven).
func ParseExecMode(s string) (ExecMode, bool) {
	switch s {
	case "", "controller":
		return ModeController, true
	case "decentralized":
		return ModeDecentralized, true
	}
	return 0, false
}

// MessageStats counts the messages attributed to one switch during a
// job: Ctrl is controller↔switch traffic (FlowMods, barriers and
// replies, partition pushes, completion reports), Peer is direct
// switch↔switch traffic (dependency acks). The controller-driven mode
// has Peer == 0 by construction; the decentralized mode trades almost
// all Ctrl volume for Peer messages on short data-plane hops.
type MessageStats struct {
	Ctrl int
	Peer int
}

// add accumulates message counts for one switch. Safe for the
// dispatcher goroutine; readers go through Messages.
func (j *Job) addMessages(n topo.NodeID, ms MessageStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.msgs == nil {
		j.msgs = make(map[topo.NodeID]MessageStats)
	}
	cur := j.msgs[n]
	cur.Ctrl += ms.Ctrl
	cur.Peer += ms.Peer
	j.msgs[n] = cur
}

// Messages returns the job's message-count breakdown: the total over
// all switches and a per-switch copy.
func (j *Job) Messages() (total MessageStats, perSwitch map[topo.NodeID]MessageStats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	perSwitch = make(map[topo.NodeID]MessageStats, len(j.msgs))
	for n, ms := range j.msgs {
		perSwitch[n] = ms
		total.Ctrl += ms.Ctrl
		total.Peer += ms.Peer
	}
	return total, perSwitch
}

// planProgress turns a stream of confirmed installs — in whatever
// order the dispatch path produces them — into the job's public trace:
// install events, per-layer RoundTimings published in layer order, and
// release bookkeeping on core.PlanRun. Both dispatch paths share it,
// so job status, SSE events and round timings are mode-agnostic.
type planProgress struct {
	job       *Job
	run       *core.PlanRun
	layers    []RoundTiming
	layerLeft []int
	nextRound int
	ready     []int
}

func newPlanProgress(job *Job) *planProgress {
	n := len(job.plan.nodes)
	p := &planProgress{
		job:       job,
		run:       core.NewPlanRun(job.plan.dag),
		layers:    make([]RoundTiming, job.plan.depth),
		layerLeft: make([]int, job.plan.depth),
		ready:     make([]int, 0, n),
	}
	for i := range p.layers {
		p.layers[i] = RoundTiming{Round: i, Cleanup: true}
	}
	for _, nd := range job.plan.nodes {
		p.layerLeft[nd.layer]++
	}
	// Per-layer and per-job traces are preallocated to their exact
	// final sizes, so the per-install hot path (confirm) never grows a
	// slice or rehashes a map.
	for i := range p.layers {
		p.layers[i].Switches = make([]topo.NodeID, 0, p.layerLeft[i])
	}
	job.mu.Lock()
	if job.installs == nil {
		job.installs = make([]InstallTiming, 0, n)
	}
	if job.timings == nil {
		job.timings = make([]RoundTiming, 0, job.plan.depth)
	}
	if job.events == nil {
		job.events = make([]JobEvent, 0, n+job.plan.depth+2)
	}
	if job.msgs == nil {
		job.msgs = make(map[topo.NodeID]MessageStats, len(job.nodes))
	}
	job.mu.Unlock()
	return p
}

// start resets the release bookkeeping and returns the root nodes.
func (p *planProgress) start() []int {
	p.ready = p.run.Reset(p.ready[:0])
	return p.ready
}

// confirm records one confirmed install: publishes the install event,
// aggregates it into its layer (a layer's RoundTiming publishes once
// the layer and all earlier layers are fully confirmed, keeping round
// events in order even when branches complete out of layer order), and
// returns the node indices the confirmation releases.
func (p *planProgress) confirm(idx int, install InstallTiming) []int {
	job := p.job
	job.mu.Lock()
	// The published event points into the job's install trace rather
	// than at the (escaping) parameter — with the trace preallocated,
	// appending a confirm is allocation-free.
	job.installs = append(job.installs, install)
	publishLocked(job, JobEvent{Install: &job.installs[len(job.installs)-1], State: JobRunning})
	job.mu.Unlock()

	nd := &job.plan.nodes[idx]
	lt := &p.layers[nd.layer]
	lt.Switches = append(lt.Switches, nd.node)
	lt.FlowMods += install.FlowMods
	lt.Cleanup = lt.Cleanup && nd.cleanup
	if lt.Started.IsZero() || install.Started.Before(lt.Started) {
		lt.Started = install.Started
	}
	if install.Finished.After(lt.Finished) {
		lt.Finished = install.Finished
	}
	p.layerLeft[nd.layer]--
	for p.nextRound < len(p.layers) && p.layerLeft[p.nextRound] == 0 {
		timing := p.layers[p.nextRound]
		sort.Slice(timing.Switches, func(a, b int) bool { return timing.Switches[a] < timing.Switches[b] })
		job.mu.Lock()
		job.timings = append(job.timings, timing)
		publishLocked(job, JobEvent{Round: &timing, State: JobRunning})
		job.mu.Unlock()
		p.nextRound++
	}

	p.ready = p.run.Complete(idx, p.ready[:0])
	return p.ready
}

// executeDecentralized runs one job by delegation: partition the
// execution DAG per switch, push every partition (with its FlowMods)
// in a single broadcast, then wait for one completion report per
// switch. The happens-before edges execute at the switches — each
// in-edge ack travels one data-plane hop instead of two control-
// channel round trips — so the controller's contribution to the
// critical path collapses to the initial push plus the final report.
//
// Reported installs flow through the same planProgress as the
// controller-driven path: install events still carry the releasing
// predecessor (as observed by the installing switch), layers still
// publish in order, and PlanRun bookkeeping still cross-checks that
// every reported install was actually released by its dependencies.
func (e *Engine) executeDecentralized(ctx context.Context, job *Job) {
	nodes := job.plan.nodes
	n := len(nodes)
	if n > 0 {
		// Self-describing partitions: the job's DAG plus its metadata,
		// so a switch (or a debugger on the wire) can tell what it is
		// executing.
		dag := *job.plan.dag
		dag.Algorithm = job.Algorithm
		parts := dag.Partition()

		reports := make(chan *planwire.Report, len(parts))
		e.c.registerPlanReports(job.ID, reports)
		defer e.c.unregisterPlanReports(job.ID)

		// A partition push hands the whole DAG to the switches at once:
		// every node is journaled dispatched in one grouped write-ahead
		// append (before any push leaves), so a recovering controller
		// knows the entire plan may have taken effect and reconciles all
		// of it against switch state.
		allNodes := make([]int, n)
		for i := range allNodes {
			allNodes[i] = i
		}
		if !e.journalDispatchBatch(job.ID, allNodes) {
			e.fail(job, errJournalWriteAhead)
			return
		}

		// Node completion offsets in reports are relative to partition
		// receipt; anchor them at the broadcast instant. The skew (one
		// control-channel delivery) is the same for every switch.
		broadcast := e.c.clock.Now()
		for i := range parts {
			part := &parts[i]
			push := &planwire.Push{Job: job.ID, Interval: job.Interval, Part: part}
			for _, pn := range part.Nodes {
				push.Mods = append(push.Mods, []*openflow.FlowMod{nodes[pn.Index].fm})
			}
			data, err := planwire.EncodePush(push)
			if err != nil {
				e.fail(job, fmt.Errorf("encoding partition for %d: %w", part.Switch, err))
				return
			}
			if err := e.c.SendVendor(uint64(part.Switch), data); err != nil {
				e.fail(job, fmt.Errorf("pushing partition to %d: %w", part.Switch, err))
				return
			}
		}

		prog := newPlanProgress(job)
		prog.start()
		confirmed := make([]bool, n)
		for remaining := n; remaining > 0; {
			var r *planwire.Report
			select {
			case r = <-reports:
			case <-e.c.clock.After(e.c.cfg.RoundTimeout):
				// No switch made terminal progress for a full timeout:
				// a peer ack or a report is lost, or an install stalled.
				// Roll back the down-closure of the confirmed set — a
				// confirmed node's dependencies took effect at their
				// switches even if their own reports were lost.
				// Installs at unreported crashed switches are invisible
				// to the controller and stay in place (see README).
				e.abort(ctx, job, stallError(job, confirmed, e.c.cfg.RoundTimeout),
					downClosure(job.plan.dag, confirmed), confirmed)
				return
			case <-ctx.Done():
				e.fail(job, ctx.Err())
				return
			}
			// Two control messages per switch, total: the partition
			// push and this report. Peer acks are the switch's own.
			job.addMessages(r.Switch, MessageStats{Ctrl: 2, Peer: r.AcksSent})
			for i := range r.Nodes {
				nr := &r.Nodes[i]
				if nr.Index < 0 || nr.Index >= n || confirmed[nr.Index] || nodes[nr.Index].node != r.Switch {
					e.abort(ctx, job, fmt.Errorf("malformed completion report from switch %d (node %d)", r.Switch, nr.Index),
						downClosure(job.plan.dag, confirmed), confirmed)
					return
				}
				confirmed[nr.Index] = true
				e.journalDelta(journal.KindConfirmed, job.ID, nr.Index)
				remaining--
				nd := &nodes[nr.Index]
				install := InstallTiming{
					Node:       nd.node,
					Layer:      nd.layer,
					ReleasedBy: nr.ReleasedBy,
					FlowMods:   nr.FlowMods,
					Cleanup:    nd.cleanup,
					Started:    broadcast.Add(nr.Started),
					Finished:   broadcast.Add(nr.Finished),
				}
				prog.confirm(nr.Index, install)
			}
		}
	}

	e.complete(job)
}

// stallError builds the failure report for a stalled decentralized
// job: every unconfirmed node with the dependencies the controller has
// not seen confirmed either. A node whose dependencies all appear
// confirmed points at a lost in-edge ack (or an unreported producer
// switch) — exactly the fault-isolation hint an operator needs.
func stallError(job *Job, confirmed []bool, timeout time.Duration) error {
	var stuck []string
	missing := 0
	for i := range job.plan.nodes {
		if confirmed[i] {
			continue
		}
		missing++
		if len(stuck) >= 8 {
			continue // cap the report; the count still tells the scale
		}
		nd := &job.plan.nodes[i]
		var waits []string
		for _, d := range job.plan.dag.Nodes[i].Deps {
			if !confirmed[d] {
				waits = append(waits, fmt.Sprintf("node %d@switch %d", d, job.plan.nodes[d].node))
			}
		}
		detail := "all dependencies confirmed — in-edge ack or completion report lost?"
		if len(waits) > 0 {
			detail = "awaiting " + strings.Join(waits, ", ")
		}
		stuck = append(stuck, fmt.Sprintf("node %d@switch %d (%s)", i, nd.node, detail))
	}
	return fmt.Errorf("decentralized execution stalled: no completion report within %v; %d/%d installs unconfirmed: %s: %w",
		timeout, missing, len(job.plan.nodes), strings.Join(stuck, "; "), context.DeadlineExceeded)
}
