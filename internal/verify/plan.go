package verify

import "tsu/internal/core"

// Plan verifies a dependency plan: props must hold in every reachable
// transient state, which for a plan means every order ideal
// (down-closed node set) of its DAG — see core.Plan for the
// equivalence argument.
//
// A layered plan's ideals are exactly the round states of its
// schedule view, so layered plans delegate to the round engine and
// the report is bit-identical to Schedule on the equivalent schedule.
// Sparse plans are decided as one DAG: the ideal space is enumerated
// exhaustively (single-flip DFS on the incremental walker) while it
// fits Options.Budget states; past the budget the verifier falls back
// to sampled linear extensions — every prefix of a seeded random
// extension is an ideal — and marks the round inexact.
// Rollback plans (core.Plan.Reverse) reuse the same machinery over a
// shifted state space: an ideal I of the rollback DAG is the set of
// switches already *uninstalled*, so the network state is base∖I where
// base marks every switch the plan covers. The walker starts from base
// and the single-flip enumeration clears bits instead of setting them;
// the final state (everything undone) must recover the old path.
func Plan(in *core.Instance, p *core.Plan, props core.Property, opts Options) *Report {
	if !p.Rollback {
		if s, ok := p.Schedule(); ok {
			return Schedule(in, s, props, opts)
		}
	}
	opts = opts.withDefaults()
	r := &Report{Algorithm: p.Algorithm, Properties: props}
	if err := p.Validate(in); err != nil {
		r.StructureErr = err
		return r
	}
	if p.Rollback {
		walk, outcome := in.Walk(in.NewState())
		r.FinalStateOK = outcome == core.Reached && walk.Equal(in.Old)
	} else {
		full := in.NewState()
		for _, nd := range p.Nodes {
			in.Mark(full, nd.Switch)
		}
		walk, outcome := in.Walk(full)
		r.FinalStateOK = outcome == core.Reached && walk.Equal(in.New)
	}
	r.Rounds = []RoundResult{planIdeals(in, p, props, opts)}
	return r
}

// PlanCounterexample is the synthesizer's certificate oracle: it
// decides the plan's ideal space directly — never delegating layered
// plans to the round engine, so a violating state always comes back
// as an ideal over plan-node indices — and returns the violating
// ideal (ascending node indices), the properties broken there, and
// whether the verdict is exact (exhaustive enumeration within
// Options.Budget rather than sampled extensions). nodes == nil means
// no violation was found; nil with exact false is an undecided
// verdict, which is also what a structurally invalid plan reports
// (callers build plans via PlanDraft, which cannot emit one).
func PlanCounterexample(in *core.Instance, p *core.Plan, props core.Property, opts Options) (nodes []int, violated core.Property, exact bool) {
	opts = opts.withDefaults()
	if err := p.Validate(in); err != nil {
		return nil, 0, false
	}
	rr := planIdeals(in, p, props, opts)
	if rr.Violation == nil {
		return nil, 0, rr.Exact
	}
	for i, nd := range p.Nodes {
		// Forward plans: a node is in the violating ideal when its
		// switch is updated. Rollback plans invert: the ideal is the
		// uninstalled set (state = base∖ideal).
		if in.Updated(rr.Violation.Updated, nd.Switch) != p.Rollback {
			nodes = append(nodes, i)
		}
	}
	return nodes, rr.Violation.Violated, rr.Exact
}

// planIdeals decides one plan's whole ideal space as a single round
// result via core.Plan.CheckIdeals: exhaustive within Options.Budget
// states, seeded linear extensions past it.
func planIdeals(in *core.Instance, p *core.Plan, props core.Property, opts Options) RoundResult {
	cex, exact := p.CheckIdeals(in, props, opts.Budget, opts.Samples, opts.Seed^0x7F4A7C159E3779B9)
	return RoundResult{Round: 0, Size: p.NumNodes(), Violation: cex, Exact: exact}
}
