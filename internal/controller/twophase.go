package controller

import (
	"fmt"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// SubmitTwoPhase enqueues the update as a tagged two-phase commit —
// the fallback HotNets'14 proposes for instances where waypoint
// enforcement and loop freedom cannot be reconciled by scheduling
// alone, and the strongest consistency available (per-packet
// consistency: every packet traverses exactly one policy, old or new):
//
//	Phase 1 (prepare): install the new policy's rules at every
//	  new-path switch, matching the flow *plus* a VLAN tag at higher
//	  priority. Untagged traffic is untouched. Barrier.
//
//	Phase 2 (commit): atomically rewrite the ingress switch's rule to
//	  tag packets and send them down the new path. From that moment
//	  every packet entering the network rides the tagged rules end to
//	  end; packets already in flight finish on the old rules. Barrier.
//
//	Phase 3 (optional, SubmitOptions.Cleanup): delete the stale
//	  untagged rules from old-path switches that are off the new path.
//
// The price relative to WayUp/Peacock is rule-table state (two rule
// versions coexist during the transition) and the tag header bits —
// the trade the update literature attributes to Reitblatt et al.'s
// two-phase mechanism.
func (e *Engine) SubmitTwoPhase(in *core.Instance, match openflow.Match, tag uint16, opts SubmitOptions) (*Job, error) {
	ep, err := e.buildTwoPhase(in, match, tag, opts.Cleanup)
	if err != nil {
		return nil, err
	}
	return e.enqueue(jobSpec{algorithm: "two-phase", plan: ep, interval: opts.Interval, mode: opts.Mode})
}

// buildTwoPhase materializes the prepare/commit(/cleanup) phases as a
// layered DAG (core.PlanFromSchedule over the phases) without
// admitting anything.
func (e *Engine) buildTwoPhase(in *core.Instance, match openflow.Match, tag uint16, cleanup bool) (execPlan, error) {
	if tag == openflow.VLANNone {
		return execPlan{}, fmt.Errorf("controller: tag 0x%04x is reserved for untagged traffic", openflow.VLANNone)
	}
	if match.Wildcards&openflow.WildcardDLVLAN == 0 {
		return execPlan{}, fmt.Errorf("controller: the flow match must not already pin a VLAN")
	}
	src := in.Src()

	tagged := match
	tagged.Wildcards &^= openflow.WildcardDLVLAN
	tagged.DLVLAN = tag

	// Phase 1: tagged copies of the new policy at every new-path
	// switch except the ingress (the ingress tags-and-forwards in
	// phase 2; a tagged rule there would never match, since packets
	// arrive untagged).
	var prepare []topo.NodeID
	var nodes []execNode
	for i := 1; i+1 < len(in.New); i++ {
		node := in.New[i]
		succ, _ := in.NewSucc(node)
		fm, err := e.c.PathFlowMod(node, succ, tagged, openflow.FlowAdd)
		if err != nil {
			return execPlan{}, err
		}
		fm.Priority = e.c.cfg.FlowPriority + 10
		prepare = append(prepare, node)
		nodes = append(nodes, execNode{node: node, fm: fm})
	}

	// Phase 2: flip the ingress — tag, then forward toward the new
	// path's first hop.
	succ, ok := in.NewSucc(src)
	if !ok {
		return execPlan{}, fmt.Errorf("controller: source %d has no new-path successor", src)
	}
	commit, err := e.c.PathFlowMod(src, succ, match, openflow.FlowModify)
	if err != nil {
		return execPlan{}, err
	}
	commit.Actions = append([]openflow.Action{openflow.ActionSetVLAN{VLAN: tag}}, commit.Actions...)
	nodes = append(nodes, execNode{node: src, fm: commit})

	phases := &core.Schedule{}
	if len(prepare) > 0 {
		phases.Rounds = append(phases.Rounds, prepare)
	}
	phases.Rounds = append(phases.Rounds, []topo.NodeID{src})
	dag := core.PlanFromSchedule(phases)
	if cleanup {
		cl := cleanupNodes(in, match)
		dag = withCleanup(dag, cl)
		nodes = append(nodes, cl...)
	}
	return newExecPlan(dag, nodes), nil
}
