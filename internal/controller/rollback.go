package controller

import (
	"context"
	"fmt"
	"sort"
	"time"

	"tsu/internal/core"
	"tsu/internal/metrics"
	"tsu/internal/openflow"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// This file is the engine's abort-and-recover path. When a job fails
// mid-plan — a barrier timeout, a dead switch, a stalled decentralized
// run — the already-installed nodes form an order ideal of the
// execution DAG (nodes only dispatch after their dependencies
// confirm). The engine reverses exactly that prefix with
// core.Plan.Reverse, re-verifies the reverse plan's order ideals with
// verify.Plan like any forward plan, and only when that check passes
// executes the rollback: every transient state on the way back down is
// then a state the forward plan could already reach on its way up, so
// a verified-safe update stays safe through its own abort. When the
// reverse plan does not verify (one-shot plans whose installed prefix
// admits unsafe sub-ideals), the job instead reports a stuck state
// with the precise per-node unmet dependencies and leaves the rules in
// place — a wrong rollback is worse than a frozen, diagnosable one.

// Failure-report phases, in escalation order.
const (
	// PhaseAborted: the job failed mid-plan and no rollback was
	// attempted (nothing installed, or a job shape — joint, two-phase
	// — the engine cannot reverse).
	PhaseAborted = "aborted"
	// PhaseRolledBack: the reverse plan verified safe and every
	// installed node was undone; the network is back on the old
	// configuration.
	PhaseRolledBack = "rolled-back"
	// PhaseRollbackFailed: the reverse plan verified safe but its
	// execution failed partway; Installed minus RolledBack is still in
	// effect.
	PhaseRollbackFailed = "rollback-failed"
	// PhaseStuck: the reverse plan did not verify safe; nothing was
	// undone and Stuck lists each installed node's unmet rollback
	// dependencies.
	PhaseStuck = "stuck"
)

// FailureReport is the structured outcome of an aborted job, surfaced
// on GET /v1/updates/{id} and through the client SDK.
type FailureReport struct {
	// Phase is one of the Phase* constants.
	Phase string
	// TriggeringFault describes the failure that aborted the plan.
	TriggeringFault string
	// Installed lists the switches whose installs were confirmed
	// before the abort (the exact barrier-confirmed set).
	Installed []topo.NodeID
	// RolledBack lists the switches whose installs were undone. It may
	// exceed Installed: nodes whose FlowMods were sent but never
	// confirmed are rolled back too (the undo mods are idempotent).
	RolledBack []topo.NodeID
	// RollbackVerified reports whether the reverse plan passed
	// verification (true even when its execution later failed).
	RollbackVerified bool
	// Stuck, for PhaseStuck/PhaseRollbackFailed, lists installed nodes
	// left in place with the dependencies blocking their uninstall.
	Stuck []StuckNode
}

// StuckNode is one installed-but-not-rolled-back switch and the
// switches whose uninstall must come first (its installed forward-plan
// successors — the reverse plan's unmet dependencies).
type StuckNode struct {
	Switch    topo.NodeID
	WaitingOn []topo.NodeID
}

// rollbackSpec carries what the abort path needs to build, verify and
// execute a reverse plan for a single-flow job. Immutable.
type rollbackSpec struct {
	in    *core.Instance
	match openflow.Match
	props core.Property // the forward plan's guarantees (0 = none promised)
}

// rollbackProps resolves the property set a rollback must uphold: the
// forward guarantees, or — for one-shot plans that promise nothing —
// the instance's natural property set, so "verified safe" keeps
// meaning something and unordered prefixes are genuinely refused.
func (s *rollbackSpec) rollbackProps() core.Property {
	if s.props != 0 {
		return s.props
	}
	p := core.NoBlackhole | core.RelaxedLoopFreedom
	if s.in.Waypoint != 0 {
		p |= core.WaypointEnforcement
	}
	return p
}

// abort handles a mid-plan failure: record the exact installed set,
// verify the reverse plan of the dispatched prefix, and either execute
// the rollback or report the job stuck. dispatched marks nodes whose
// FlowMods may have reached their switch (a down-closed superset of
// confirmed); confirmed marks barrier-confirmed installs.
func (e *Engine) abort(ctx context.Context, job *Job, cause error, dispatched, confirmed []bool) {
	metrics.Aborts.Inc()
	report := &FailureReport{
		Phase:           PhaseAborted,
		TriggeringFault: cause.Error(),
		Installed:       planSetSwitches(job, confirmed),
	}
	spec := job.rollback
	if spec == nil || !anySet(dispatched) {
		e.failWithReport(job, cause, report)
		return
	}
	if err := e.verifyRollback(job, spec, dispatched); err != nil {
		metrics.Stalls.Inc()
		report.Phase = PhaseStuck
		report.Stuck = stuckNodes(job, dispatched, nil)
		e.failWithReport(job, fmt.Errorf("%w; rollback refused: %v", cause, err), report)
		return
	}
	report.RollbackVerified = true
	rolledBack, undone, rbErr := e.executeRollback(ctx, job, spec, dispatched)
	report.RolledBack = rolledBack
	if rbErr != nil {
		metrics.Stalls.Inc()
		report.Phase = PhaseRollbackFailed
		report.Stuck = stuckNodes(job, dispatched, undone)
		e.failWithReport(job, fmt.Errorf("%w; rollback failed: %v", cause, rbErr), report)
		return
	}
	report.Phase = PhaseRolledBack
	e.failWithReport(job, cause, report)
}

// verifyRollback checks the reverse plan of the dispatched prefix of
// the job's update nodes. Cleanup nodes are excluded from the
// verified plan: they sit past every update node, so a dispatched
// cleanup node implies the network is fully on the new path, where
// re-adding a stale old-path rule at an unreachable switch is
// unobservable — executeRollback undoes them first, restoring exactly
// the state space this verification covers.
func (e *Engine) verifyRollback(job *Job, spec *rollbackSpec, dispatched []bool) error {
	k := len(job.plan.nodes)
	for i := range job.plan.nodes {
		if job.plan.nodes[i].cleanup {
			k = i
			break
		}
	}
	props := spec.rollbackProps()
	fwd := &core.Plan{
		Algorithm:  job.Algorithm,
		Guarantees: props,
		Sparse:     job.plan.dag.Sparse,
		Nodes:      job.plan.dag.Nodes[:k],
	}
	rev, _, err := fwd.Reverse(dispatched[:k])
	if err != nil {
		return err
	}
	rep := verify.Plan(spec.in, rev, props, verify.Options{})
	if !rep.OK() {
		if cex := rep.FirstViolation(); cex != nil {
			return fmt.Errorf("reverse plan admits a transient %v violation", cex.Violated)
		}
		if rep.StructureErr != nil {
			return fmt.Errorf("reverse plan invalid: %w", rep.StructureErr)
		}
		return fmt.Errorf("reverse plan does not restore the old configuration")
	}
	return nil
}

// executeRollback undoes the dispatched prefix ack-driven along the
// full reverse DAG (cleanup undos first — they are the reverse plan's
// roots). Undo FlowMods are idempotent, so nodes that were dispatched
// but never took effect are harmless to "undo". Returns the switches
// undone in confirmation order and the per-node undone set.
func (e *Engine) executeRollback(ctx context.Context, job *Job, spec *rollbackSpec, dispatched []bool) (rolledBack []topo.NodeID, undone []bool, err error) {
	rev, fwd, err := job.plan.dag.Reverse(dispatched)
	if err != nil {
		return nil, nil, err
	}
	n := len(rev.Nodes)
	undone = make([]bool, len(dispatched))
	if n == 0 {
		return nil, undone, nil
	}
	mods := make([]*openflow.FlowMod, n)
	for j, fi := range fwd {
		fm, err := e.undoFlowMod(spec.in, job.plan.nodes[fi].node, spec.match)
		if err != nil {
			return nil, undone, err
		}
		mods[j] = fm
	}

	// One sink per node, each resolved at most once: replies never
	// block the read loops, and a late one lands in the buffer unread.
	acks := make(chan nodeAck, n)
	pending := make([]bool, n)
	var deads timedRing // RoundTimeout deadlines in send order
	inflight := 0
	var failure error
	dispatch := func(j int) {
		node := rev.Nodes[j].Switch
		if err := e.c.SendFlowMod(uint64(node), mods[j]); err != nil {
			failure = fmt.Errorf("rollback at %d: sending flowmod: %w", node, err)
			return
		}
		if _, err := e.c.sendBarrier(uint64(node), barrierSink{acks: acks, idx: int32(j)}); err != nil {
			failure = fmt.Errorf("rollback at %d: barrier: %w", node, err)
			return
		}
		pending[j] = true
		inflight++
		deads.push(int32(j), e.c.clock.Now().Add(e.c.cfg.RoundTimeout))
	}

	run := core.NewPlanRun(rev)
	ready := run.Reset(make([]int, 0, n))
	for _, j := range ready {
		if failure == nil {
			dispatch(j)
		}
	}
	// A single re-armed timer over the deadline ring, as in runDAG:
	// deadlines are pushed in nondecreasing order, so the earliest
	// pending one is the head once resolved entries are skipped.
	var timerC <-chan time.Time
	var timerAt time.Time
	for inflight > 0 && failure == nil {
		for deads.len() > 0 {
			if j, _ := deads.peek(); pending[j] {
				break
			}
			deads.pop()
		}
		_, dl := deads.peek()
		if timerC == nil || timerAt.After(dl) {
			timerC = e.c.clock.After(dl.Sub(e.c.clock.Now()))
			timerAt = dl
		}
		select {
		case a := <-acks:
			pending[a.idx] = false
			inflight--
			node := rev.Nodes[a.idx].Switch
			job.addMessages(node, MessageStats{Ctrl: 3})
			metrics.InstallsRolledBack.Inc()
			rolledBack = append(rolledBack, node)
			undone[fwd[a.idx]] = true
			for _, s := range run.Complete(a.idx, ready[:0]) {
				if failure == nil {
					dispatch(s)
				}
			}
		case <-timerC:
			timerC = nil
			if j, dl := deads.peek(); !dl.After(e.c.clock.Now()) {
				failure = fmt.Errorf("rollback at %d: barrier reply: %w", rev.Nodes[j].Switch, context.DeadlineExceeded)
			}
		case <-ctx.Done():
			j, _ := deads.peek()
			failure = fmt.Errorf("rollback at %d: barrier reply: %w", rev.Nodes[j].Switch, ctx.Err())
		}
	}
	return rolledBack, undone, failure
}

// undoFlowMod builds the FlowMod that reverses one switch's update:
// old-path switches MODIFY the flow back toward their old-path
// successor (OF 1.0 MODIFY also re-inserts a rule a cleanup node
// deleted); new-path-only switches delete the rule the update
// inserted. Both are idempotent on a switch the forward plan never
// reached.
func (e *Engine) undoFlowMod(in *core.Instance, node topo.NodeID, match openflow.Match) (*openflow.FlowMod, error) {
	if succ, ok := in.OldSucc(node); ok {
		return e.c.PathFlowMod(node, succ, match, openflow.FlowModify)
	}
	return deleteFlowMod(match), nil
}

// failWithReport marks the job failed with a structured failure
// report attached.
func (e *Engine) failWithReport(job *Job, err error, report *FailureReport) {
	e.finish(job, err, report)
	e.c.logger.Warn("update job aborted", "job", job.ID, "phase", report.Phase,
		"installed", len(report.Installed), "rolledBack", len(report.RolledBack), "err", err)
}

// stuckNodes lists the installed nodes left in place (installed minus
// undone; undone may be nil) with the installed successors whose
// uninstall must come first. Capped at 8 entries, like stallError.
func stuckNodes(job *Job, installed, undone []bool) []StuckNode {
	dag := job.plan.dag
	left := func(i int) bool { return installed[i] && (undone == nil || !undone[i]) }
	var out []StuckNode
	for i := range dag.Nodes {
		if !left(i) {
			continue
		}
		if len(out) >= 8 {
			break
		}
		var waits []topo.NodeID
		for s := i + 1; s < len(dag.Nodes); s++ {
			if !left(s) {
				continue
			}
			for _, d := range dag.Nodes[s].Deps {
				if d == i {
					waits = append(waits, dag.Nodes[s].Switch)
					break
				}
			}
		}
		out = append(out, StuckNode{Switch: dag.Nodes[i].Switch, WaitingOn: waits})
	}
	return out
}

// planSetSwitches maps a per-node bool set to its sorted switch list.
func planSetSwitches(job *Job, set []bool) []topo.NodeID {
	var out []topo.NodeID
	for i, ok := range set {
		if ok {
			out = append(out, job.plan.nodes[i].node)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// anySet reports whether any element is true.
func anySet(set []bool) bool {
	for _, ok := range set {
		if ok {
			return true
		}
	}
	return false
}

// downClosure returns the down-closed cover of confirmed: a confirmed
// node's dependencies must have taken effect at their switches (a
// switch only installs after its in-edge acks) even when their own
// completion reports were lost, so the rollback prefix includes them.
func downClosure(p *core.Plan, confirmed []bool) []bool {
	closed := make([]bool, len(confirmed))
	copy(closed, confirmed)
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if !closed[i] {
			continue
		}
		for _, d := range p.Nodes[i].Deps {
			closed[d] = true
		}
	}
	return closed
}
