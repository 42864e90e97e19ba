package main

import (
	"errors"
	"fmt"
	"reflect"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/switchsim"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// The correctness gate runs after the load phases and is not timed. A
// run is correct only if every update ended done (after an ok verify
// verdict where one was asked), every flow's probe follows the path
// its last update installed, and every distinct input re-planned here
// reproduces what the server reported and verifies clean.

// checkOutcomes requires every update to have succeeded.
func checkOutcomes(outs []*outcome) error {
	for _, o := range outs {
		switch {
		case o.err != nil:
			return fmt.Errorf("update %d: %w", o.id, o.err)
		case o.verify != nil && !o.verify.OK:
			return fmt.Errorf("update %d: /v1/verify is not ok: %+v", o.id, o.verify.Violation)
		case o.state != "done":
			return fmt.Errorf("update %d: job %d ended %q: %s", o.id, o.accepted.ID, o.state, o.msg)
		}
	}
	return nil
}

// checkPath injects a probe at the flow's source and requires it to
// be delivered to the flow's host along exactly fl.path.
func checkPath(fabric *switchsim.Fabric, fl *flow) error {
	res := fabric.Inject(fl.path.Src(), fl.ip, 2*len(fl.path)+8)
	if res.Outcome != switchsim.ProbeDelivered || res.Host != fl.host || !res.Visited.Equal(fl.path) {
		return fmt.Errorf("flow %s: probe %s to %q via %v, want delivered to %q via %v",
			fl.nwDst, res.Outcome, res.Host, res.Visited, fl.host, fl.path)
	}
	return nil
}

// plan is the gate's independent re-derivation of one input's plan.
type plan struct {
	in    *core.Instance
	sched *core.Schedule
	dag   *core.Plan
	props core.Property
}

// replan computes an entry's schedule and executed DAG the way the
// /v1 API documents it: the named (or default) scheduler, the layered
// DAG of its rounds, or its sparse DAG when plan "sparse" was asked of
// a scheduler that has one.
func replan(req api.FlowUpdate) (*plan, error) {
	props, err := core.ParseProperties(req.Properties)
	if err != nil {
		return nil, err
	}
	p := &plan{}
	if p.in, err = core.NewInstance(api.ToPath(req.OldPath), api.ToPath(req.NewPath), topo.NodeID(req.Waypoint)); err != nil {
		return nil, err
	}
	p.sched, err = core.ScheduleByName(p.in, req.Algorithm, props)
	if err != nil {
		return nil, err
	}
	p.dag = core.PlanFromSchedule(p.sched)
	if req.Plan == "sparse" {
		if s, err := core.Lookup(p.sched.Algorithm); err == nil {
			if _, ok := s.(core.PlanScheduler); ok {
				p.dag = core.SparsePlan(p.in, p.sched)
			}
		}
	}
	// The property set the plan must uphold: what was asked, else what
	// the scheduler guarantees, else (for a baseline that guarantees
	// nothing) what the consistent schedulers provide.
	p.props = props
	if p.props == 0 {
		p.props = p.sched.Guarantees
	}
	if p.props == 0 {
		p.props = core.NoBlackhole | core.RelaxedLoopFreedom
		if p.in.Waypoint != 0 {
			p.props |= core.WaypointEnforcement
		}
	}
	return p, nil
}

func shapeOf(p *core.Plan) api.PlanShape {
	return api.PlanShape{
		Nodes:        p.NumNodes(),
		Edges:        p.NumEdges(),
		Depth:        p.Depth(),
		Width:        p.Width(),
		CriticalPath: p.CriticalPath(),
		Sparse:       p.Sparse,
	}
}

// matches requires the server-reported algorithm, rounds and plan
// shape to equal the re-derived plan's.
func matches(p *plan, algorithm string, rounds [][]uint64, shape *api.PlanShape) error {
	if algorithm != p.sched.Algorithm {
		return fmt.Errorf("server planned with %q, re-planning gives %q", algorithm, p.sched.Algorithm)
	}
	if want := api.FromRounds(p.sched.Rounds); !reflect.DeepEqual(rounds, want) {
		return fmt.Errorf("server reported rounds %v, re-planning gives %v", rounds, want)
	}
	if shape == nil {
		return errors.New("server reported no plan shape")
	}
	if want := shapeOf(p.dag); *shape != want {
		return fmt.Errorf("server reported plan %+v, re-planning gives %+v", *shape, want)
	}
	return nil
}

// verifyPlan requires the re-derived DAG to pass verify.Plan.
func verifyPlan(p *plan) error {
	if rep := verify.Plan(p.in, p.dag, p.props, verify.Options{}); !rep.OK() {
		return fmt.Errorf("verify.Plan rejects the %s plan: %s", p.sched.Algorithm, rep)
	}
	return nil
}

// checkInputs re-plans and verifies each distinct input once, and
// checks every update's server-reported plan (and verify verdict)
// against it. It returns the plans by input key.
func checkInputs(outs []*outcome) (map[string]*plan, error) {
	plans := make(map[string]*plan)
	for _, o := range outs {
		key := inputKey(o.req)
		p, seen := plans[key]
		if !seen {
			var err error
			if p, err = replan(o.req); err != nil {
				return nil, fmt.Errorf("re-planning update %d: %w", o.id, err)
			}
			if err := verifyPlan(p); err != nil {
				return nil, fmt.Errorf("update %d: %w", o.id, err)
			}
			plans[key] = p
		}
		a := o.accepted
		if err := matches(p, a.Algorithm, a.Rounds, a.Plan); err != nil {
			return nil, fmt.Errorf("update %d (job %d): %w", o.id, a.ID, err)
		}
		if v := o.verify; v != nil {
			if err := matches(p, v.Algorithm, v.Rounds, v.Plan); err != nil {
				return nil, fmt.Errorf("update %d verify: %w", o.id, err)
			}
		}
	}
	return plans, nil
}
