package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"tsu/internal/topo"
)

// Plan is a dependency DAG of per-switch updates: node i's FlowMod may
// be issued as soon as every dependency's barrier reply has arrived —
// per-node barriers instead of per-round barriers. It is the
// generalization of Schedule's global-barrier rounds: a round schedule
// converts losslessly to a *layered* plan (every switch of round r
// depends on every switch of round r-1, see PlanFromSchedule), while a
// sparse plan keeps only the edges a property proof needs, so a single
// slow switch stalls just its own dependents instead of the whole
// update.
//
// # Reachable transient states
//
// During execution a node is *issued* once all its dependencies are
// confirmed, and its FlowMod takes effect at an arbitrary instant
// between issue and barrier reply. The rule states reachable under
// every interleaving are exactly the down-closed node sets (order
// ideals) of the DAG: if D is the confirmed set (down-closed by
// construction) then any subset of the issued frontier may have taken
// effect, and D ∪ (subset of frontier) is again down-closed;
// conversely any down-closed S is reached by confirming S minus its
// maximal elements and letting exactly max(S) — an antichain cut —
// take effect. For a layered plan the ideals are "all earlier layers
// plus any subset of the current layer": precisely the round
// semantics, which is why layered-plan verification and exploration
// are bit-identical to the round machinery.
//
// Nodes are stored in topological order: every dependency index is
// strictly smaller than the node's own index (Validate enforces this,
// and the wire codec relies on it).
type Plan struct {
	// Algorithm names the scheduler that produced the plan.
	Algorithm string

	// Guarantees is the property set promised to hold in every
	// reachable transient state (every order ideal) of this plan.
	Guarantees Property

	// LoopFreedomCompromised mirrors Schedule.LoopFreedomCompromised.
	LoopFreedomCompromised bool

	// Sparse marks plans whose edge set was pruned below the layered
	// closure (emitted by a PlanScheduler).
	Sparse bool

	// Rollback marks reverse plans produced by Reverse: nodes *undo*
	// their switch's update, so the network starts from the installed
	// prefix and walks back toward the old configuration. Verification
	// and exploration interpret an ideal I of a rollback plan as the
	// network state base∖I where base is the set of switches the plan
	// covers. Rollback plans cover a subset of the instance's pending
	// set (Validate relaxes the exact-cover check) and never cross the
	// wire — rollback always executes controller-driven.
	Rollback bool

	// Nodes holds one entry per pending switch, in topological order.
	Nodes []PlanNode
}

// PlanNode is one per-switch update of a Plan.
type PlanNode struct {
	// Switch receives this node's FlowMod.
	Switch topo.NodeID

	// Deps lists the indices (into Plan.Nodes, each strictly smaller
	// than this node's own index) whose barriers must arrive before
	// this node's FlowMod is issued. Sorted ascending, no duplicates.
	Deps []int
}

// PlanScheduler is the optional scheduler capability of emitting a
// genuinely sparse dependency plan — edges only where the scheduler's
// own safety argument needs ordering. Schedulers without it are
// covered by PlanFromSchedule's lossless layered conversion.
type PlanScheduler interface {
	// Plan computes a dependency plan for the instance; props as in
	// Scheduler.Schedule.
	Plan(in *Instance, props Property) (*Plan, error)
}

// PlanFromSchedule converts a round schedule to its layered plan:
// every switch of round r depends on every switch of round r-1
// (transitively, on all earlier rounds). The conversion is lossless —
// the plan's order ideals are exactly the schedule's reachable round
// states, and Rounds recovers the original rounds.
func PlanFromSchedule(s *Schedule) *Plan {
	p := &Plan{
		Algorithm:              s.Algorithm,
		Guarantees:             s.Guarantees,
		LoopFreedomCompromised: s.LoopFreedomCompromised,
	}
	total := 0
	for _, r := range s.Rounds {
		total += len(r)
	}
	p.Nodes = make([]PlanNode, 0, total)
	prevStart, prevEnd := 0, 0
	for _, round := range s.Rounds {
		start := len(p.Nodes)
		for _, v := range round {
			var deps []int
			if prevEnd > prevStart {
				deps = make([]int, 0, prevEnd-prevStart)
				for d := prevStart; d < prevEnd; d++ {
					deps = append(deps, d)
				}
			}
			p.Nodes = append(p.Nodes, PlanNode{Switch: v, Deps: deps})
		}
		prevStart, prevEnd = start, len(p.Nodes)
	}
	return p
}

// NumNodes returns the number of per-switch updates in the plan.
func (p *Plan) NumNodes() int { return len(p.Nodes) }

// NumEdges returns the total number of dependency edges.
func (p *Plan) NumEdges() int {
	e := 0
	for _, n := range p.Nodes {
		e += len(n.Deps)
	}
	return e
}

// layerOf returns each node's layer — the longest dependency chain
// ending at it, roots at 0 — and the plan depth (number of layers).
func (p *Plan) layerOf() ([]int, int) {
	layer := make([]int, len(p.Nodes))
	depth := 0
	for i, n := range p.Nodes {
		l := 0
		for _, d := range n.Deps {
			if layer[d]+1 > l {
				l = layer[d] + 1
			}
		}
		layer[i] = l
		if l+1 > depth {
			depth = l + 1
		}
	}
	return layer, depth
}

// Depth returns the number of layers — the length, in installs, of the
// longest dependency chain. A layered plan's depth is its round count.
func (p *Plan) Depth() int {
	_, depth := p.layerOf()
	return depth
}

// NodeLayers returns each node's layer, aligned with Nodes — the
// per-node view behind Layers, exposed for executors that track their
// own node metadata (the controller engine).
func (p *Plan) NodeLayers() []int {
	layer, _ := p.layerOf()
	return layer
}

// Width returns the size of the largest layer — the plan's peak
// install parallelism.
func (p *Plan) Width() int {
	layer, depth := p.layerOf()
	if depth == 0 {
		return 0
	}
	counts := make([]int, depth)
	for _, l := range layer {
		counts[l]++
	}
	w := 0
	for _, c := range counts {
		if c > w {
			w = c
		}
	}
	return w
}

// CriticalPath returns the number of barrier waits on the longest
// dependency chain — Depth()-1, the count of sequential
// ack-before-issue hops before the last install of the chain can be
// sent. Zero for plans whose installs all dispatch immediately.
func (p *Plan) CriticalPath() int {
	if d := p.Depth(); d > 0 {
		return d - 1
	}
	return 0
}

// Layers groups the switches by layer (longest-path depth), each layer
// in node order. For a layered plan this reproduces the rounds; for a
// sparse plan it is the plan's natural display form.
func (p *Plan) Layers() [][]topo.NodeID {
	layer, depth := p.layerOf()
	out := make([][]topo.NodeID, depth)
	for i, n := range p.Nodes {
		out[layer[i]] = append(out[layer[i]], n.Switch)
	}
	return out
}

// Rounds reports whether the plan is layered — its dependency closure
// equals the all-earlier-layers closure, so its order ideals are
// exactly round states — and, when it is, returns the rounds. Sparse
// plans return (nil, false).
func (p *Plan) Rounds() ([][]topo.NodeID, bool) {
	n := len(p.Nodes)
	if n == 0 {
		return nil, true
	}
	layer, depth := p.layerOf()
	words := (n + 63) / 64
	// closure[i] = the set of nodes reachable through deps from i.
	closure := make([]uint64, n*words)
	for i, nd := range p.Nodes {
		ci := closure[i*words : (i+1)*words]
		for _, d := range nd.Deps {
			cd := closure[d*words : (d+1)*words]
			for w := range ci {
				ci[w] |= cd[w]
			}
			ci[d>>6] |= 1 << (uint(d) & 63)
		}
	}
	// prefix[l] = all nodes in layers < l.
	prefix := make([]uint64, words)
	for l := 0; l < depth; l++ {
		for i := range p.Nodes {
			if layer[i] != l {
				continue
			}
			ci := closure[i*words : (i+1)*words]
			for w := range prefix {
				if ci[w]&prefix[w] != prefix[w] {
					return nil, false
				}
			}
		}
		for i := range p.Nodes {
			if layer[i] == l {
				prefix[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	rounds := make([][]topo.NodeID, depth)
	for i, nd := range p.Nodes {
		rounds[layer[i]] = append(rounds[layer[i]], nd.Switch)
	}
	return rounds, true
}

// Schedule returns the round-schedule view of a layered plan, or
// (nil, false) for a sparse plan. It is the inverse of
// PlanFromSchedule.
func (p *Plan) Schedule() (*Schedule, bool) {
	rounds, ok := p.Rounds()
	if !ok {
		return nil, false
	}
	return &Schedule{
		Rounds:                 rounds,
		Algorithm:              p.Algorithm,
		Guarantees:             p.Guarantees,
		LoopFreedomCompromised: p.LoopFreedomCompromised,
	}, true
}

// String renders the plan shape compactly, e.g.
// "peacock[plan 7 nodes 5 edges depth 2 width 5 sparse]".
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[plan %d nodes %d edges depth %d width %d",
		p.Algorithm, p.NumNodes(), p.NumEdges(), p.Depth(), p.Width())
	if p.Sparse {
		b.WriteString(" sparse")
	}
	b.WriteByte(']')
	return b.String()
}

// Validate checks the structural contract between a plan and its
// instance: nodes are in topological order (deps sorted ascending,
// unique, strictly below the node), no switch appears twice, and the
// node set is exactly the instance's pending set. Rollback plans
// relax the last check to a subset — they uninstall only the prefix
// that had been installed when the forward plan aborted.
func (p *Plan) Validate(in *Instance) error {
	seen := make(map[topo.NodeID]bool, len(p.Nodes))
	for i, n := range p.Nodes {
		if seen[n.Switch] {
			return fmt.Errorf("core: switch %d planned twice", n.Switch)
		}
		seen[n.Switch] = true
		if !in.NeedsUpdate(n.Switch) {
			return fmt.Errorf("core: switch %d planned but needs no update", n.Switch)
		}
		prev := -1
		for _, d := range n.Deps {
			if d <= prev {
				return fmt.Errorf("core: plan node %d deps not strictly ascending", i)
			}
			if d >= i {
				return fmt.Errorf("core: plan node %d depends on node %d (not topological)", i, d)
			}
			prev = d
		}
	}
	if !p.Rollback && len(seen) != in.NumPending() {
		return fmt.Errorf("core: plan covers %d of %d pending switches", len(seen), in.NumPending())
	}
	return nil
}

// Reverse builds the rollback plan for an aborted execution of p:
// installed[i] reports whether node i's FlowMod took effect before the
// abort. The installed set must be an order ideal (down-closed — a
// dependency of an installed node is itself installed); executions
// that only dispatch after all dependencies confirm produce exactly
// such prefixes. The result uninstalls the installed nodes in the
// opposite order: reverse node j undoes forward node installed[last-j],
// and depends on the (reversed positions of the) installed forward
// nodes that depended on it — each forward edge u→v with both ends
// installed becomes the reverse edge v'→u'. The reverse plan's order
// ideals are the complements (within the installed set) of the forward
// plan's sub-ideals, so every transient state of a verified rollback
// is a state the forward plan could already reach on its way up.
//
// The second result maps reverse node index to forward node index.
func (p *Plan) Reverse(installed []bool) (*Plan, []int, error) {
	if len(installed) != len(p.Nodes) {
		return nil, nil, fmt.Errorf("core: Reverse: installed covers %d of %d nodes", len(installed), len(p.Nodes))
	}
	if p.Rollback {
		return nil, nil, fmt.Errorf("core: Reverse of a rollback plan")
	}
	// Position of forward node i in the reverse plan, -1 if absent.
	pos := make([]int, len(p.Nodes))
	n := 0
	for i, nd := range p.Nodes {
		pos[i] = -1
		if !installed[i] {
			continue
		}
		for _, d := range nd.Deps {
			if !installed[d] {
				return nil, nil, fmt.Errorf("core: Reverse: installed set not down-closed: node %d (switch %d) installed but dependency %d (switch %d) is not",
					i, p.Nodes[i].Switch, d, p.Nodes[d].Switch)
			}
		}
		n++
	}
	rev := &Plan{
		Algorithm:              p.Algorithm,
		Guarantees:             p.Guarantees,
		LoopFreedomCompromised: p.LoopFreedomCompromised,
		Sparse:                 p.Sparse,
		Rollback:               true,
		Nodes:                  make([]PlanNode, 0, n),
	}
	fwd := make([]int, 0, n)
	// Emit installed nodes in descending forward order: every forward
	// successor (index > i) lands at a smaller reverse index, keeping
	// the topological invariant.
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		if !installed[i] {
			continue
		}
		pos[i] = len(rev.Nodes)
		rev.Nodes = append(rev.Nodes, PlanNode{Switch: p.Nodes[i].Switch})
		fwd = append(fwd, i)
	}
	// Reverse each installed forward edge d→i into i'→d' (reverse node
	// pos[d] depends on pos[i]). Forward deps are ascending in d, so
	// walking nodes in forward order appends each reverse node's deps
	// in descending pos[i] order... collect then sort.
	for i, nd := range p.Nodes {
		if !installed[i] {
			continue
		}
		for _, d := range nd.Deps {
			rn := &rev.Nodes[pos[d]]
			rn.Deps = append(rn.Deps, pos[i])
		}
	}
	for j := range rev.Nodes {
		sortedUniqueInts(&rev.Nodes[j].Deps)
	}
	return rev, fwd, nil
}

// BaseState returns the network state a rollback plan starts from: all
// switches the plan covers marked updated. An ideal I of the rollback
// plan corresponds to network state BaseState∖I.
func (p *Plan) BaseState(in *Instance) State {
	s := in.NewState()
	for _, nd := range p.Nodes {
		if i := in.NodeIndex(nd.Switch); i >= 0 {
			s.Set(i)
		}
	}
	return s
}

// VisitIdeals enumerates every order ideal (down-closed node set) of
// the plan exactly once — the plan's reachable transient states. The
// enumeration is a DFS over include/exclude decisions on minimal
// elements, so consecutive callbacks change the current set one node
// at a time: flip(i, on) reports each single-node change (pair it with
// Walker.Flip for incremental re-walks), and visit is called once per
// ideal, with the current set equal to that ideal. visit returning
// false aborts; VisitIdeals reports whether the enumeration ran to
// completion. The DFS is deterministic: branches always pick the
// smallest eligible node index.
func (p *Plan) VisitIdeals(flip func(node int, on bool), visit func() bool) bool {
	n := len(p.Nodes)
	words := (n + 63) / 64
	scratch := make([]uint64, 2*words)
	included, excluded := scratch[:words], scratch[words:]
	has := func(s []uint64, i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
	set := func(s []uint64, i int) { s[i>>6] |= 1 << (uint(i) & 63) }
	unset := func(s []uint64, i int) { s[i>>6] &^= 1 << (uint(i) & 63) }
	eligible := func(i int) bool {
		if has(included, i) || has(excluded, i) {
			return false
		}
		for _, d := range p.Nodes[i].Deps {
			if !has(included, d) {
				return false
			}
		}
		return true
	}
	var rec func() bool
	rec = func() bool {
		m := -1
		for i := 0; i < n; i++ {
			if eligible(i) {
				m = i
				break
			}
		}
		if m == -1 {
			return visit()
		}
		set(included, m)
		flip(m, true)
		if !rec() {
			return false
		}
		flip(m, false)
		unset(included, m)
		set(excluded, m)
		if !rec() {
			return false
		}
		unset(excluded, m)
		return true
	}
	return rec()
}

// PlanRun is the reusable bookkeeping of an ack-driven dispatcher over
// a plan's DAG: it tracks per-node unmet-dependency counts and hands
// out newly released nodes as completions arrive. The successor
// adjacency is flattened at construction; Reset and Complete allocate
// nothing (callers pass and reuse the ready buffer), so the per-barrier
// hot path of the controller engine — and of the explorer's sampled
// linear extensions — is allocation-free in steady state.
//
// A PlanRun is single-goroutine state; the engine serializes
// completions through its ack loop before touching it.
type PlanRun struct {
	numDeps   []int32
	succStart []int32
	succ      []int32
	indeg     []int32
	remaining int
}

// NewPlanRun builds dispatch bookkeeping for the plan. The returned
// run is unstarted; call Reset before the first Complete.
func NewPlanRun(p *Plan) *PlanRun {
	n := len(p.Nodes)
	r := &PlanRun{
		numDeps:   make([]int32, n),
		succStart: make([]int32, n+1),
		indeg:     make([]int32, n),
	}
	for i, nd := range p.Nodes {
		r.numDeps[i] = int32(len(nd.Deps))
		for _, d := range nd.Deps {
			r.succStart[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		r.succStart[i+1] += r.succStart[i]
	}
	r.succ = make([]int32, r.succStart[n])
	fill := make([]int32, n)
	copy(fill, r.succStart[:n])
	for i, nd := range p.Nodes {
		for _, d := range nd.Deps {
			r.succ[fill[d]] = int32(i)
			fill[d]++
		}
	}
	return r
}

// NumNodes returns the number of plan nodes the run tracks.
func (r *PlanRun) NumNodes() int { return len(r.numDeps) }

// Remaining returns how many nodes have not yet completed.
func (r *PlanRun) Remaining() int { return r.remaining }

// Reset re-arms the run and appends the initially released nodes (no
// dependencies) to ready, returning the extended slice. With a
// pre-grown buffer it does not allocate.
func (r *PlanRun) Reset(ready []int) []int {
	copy(r.indeg, r.numDeps)
	r.remaining = len(r.numDeps)
	for i, d := range r.indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	return ready
}

// Complete records node i's barrier reply and appends every node it
// releases (dependencies now all confirmed) to ready, returning the
// extended slice. With a pre-grown buffer it does not allocate.
func (r *PlanRun) Complete(i int, ready []int) []int {
	r.remaining--
	for _, s := range r.succ[r.succStart[i]:r.succStart[i+1]] {
		r.indeg[s]--
		if r.indeg[s] == 0 {
			ready = append(ready, int(s))
		}
	}
	return ready
}

// maxSparseCheckStates bounds the exhaustive walk-property proof
// SparsePlan runs on a derived plan; larger ideal spaces rest on the
// walk-projection argument plus a seeded sampled spot-check.
const maxSparseCheckStates = 1 << 20

// sparseSpotSamples is the number of seeded linear extensions the
// spot-check replays when the ideal space exceeds the exhaustive
// budget.
const sparseSpotSamples = 64

// SparsePlan derives a sparse dependency plan from a round schedule
// using the dependency reasoning the walk-based schedulers (Peacock,
// GreedySLF) already encode, then proves it safe before returning it:
//
//   - Rule-availability edges: a switch v that is on the old path
//     depends on every new-path-only switch along its new-rule chain
//     (the maximal run of new-only pending switches its new successor
//     chain enters). Those are the only switches that can transiently
//     lack a rule, and v's flip is what routes the forwarding walk
//     into them — nothing else ever reaches them, so no other
//     ordering involving them is needed (Peacock's L1).
//   - Ordering edges: the walk-relevant switches (those on the old
//     path) keep exactly the relative order the schedule gave them —
//     each depends on every walk-relevant switch of the previous
//     walk-relevant round. Projected onto these switches, the plan's
//     order ideals are therefore precisely the schedule's round
//     states, so the scheduler's own per-round safety argument (L2's
//     forward landings, GreedySLF's double-edge test) carries over.
//
// What the derivation drops is the global barrier: a new-only switch
// no longer gates unrelated branches, only the consumer whose chain
// needs its rule.
//
// Soundness. In any order ideal S of the derived DAG the forwarding
// walk equals the walk of a schedule-reachable round state: the walk
// enters a new-only chain only through its flipped consumer, whose
// chain edges force the whole chain into S (down-closure), so the
// walk is a function of S's walk-relevant projection — and the
// ordering edges make that projection exactly a round prefix plus a
// subset of one round. Every walk-based guarantee (blackhole, relaxed
// loop freedom, waypoint) therefore carries over from the schedule.
// Strong loop freedom additionally constrains rules at unreachable
// switches, where early new-only flips add edges round semantics
// delayed; SparsePlan decides it with the polynomial double-edge test
// per walk-relevant round, with every new-only switch modelled as
// permanently in flight (a superset of the reachable rule graphs).
// The walk properties are additionally proven exhaustively — every
// order ideal through Walker.Check — whenever the ideal space fits
// the budget, and spot-checked over seeded linear extensions past it.
// Any failed or refuted check falls back to the layered plan, so
// SparsePlan never weakens the schedule's contract.
func SparsePlan(in *Instance, s *Schedule) *Plan {
	layered := PlanFromSchedule(s)
	n := len(layered.Nodes)
	if n == 0 {
		return layered
	}
	sparse := &Plan{
		Algorithm:              s.Algorithm,
		Guarantees:             s.Guarantees,
		LoopFreedomCompromised: s.LoopFreedomCompromised,
		Sparse:                 true,
		Nodes:                  make([]PlanNode, 0, n),
	}
	idxOf := make(map[topo.NodeID]int, n)
	onOld := func(v topo.NodeID) bool { return in.OnOld(v) }
	// prevWalk tracks the node indices of the last round that
	// contained walk-relevant switches.
	var prevWalk, curWalk []int
	for _, round := range s.Rounds {
		curWalk = curWalk[:0]
		for _, v := range round {
			i := len(sparse.Nodes)
			idxOf[v] = i
			var deps []int
			if onOld(v) {
				deps = append(deps, prevWalk...)
				// Rule-availability: follow v's new-rule chain through
				// new-only pending switches.
				for w, ok := in.NewSucc(v); ok && in.NewOnly(w) && in.NeedsUpdate(w); w, ok = in.NewSucc(w) {
					if j, scheduled := idxOf[w]; scheduled {
						deps = append(deps, j)
					}
				}
				curWalk = append(curWalk, i)
			}
			sortedUniqueInts(&deps)
			sparse.Nodes = append(sparse.Nodes, PlanNode{Switch: v, Deps: deps})
		}
		if len(curWalk) > 0 {
			prevWalk = append(prevWalk[:0], curWalk...)
		}
	}
	if err := sparse.Validate(in); err != nil {
		return layered
	}
	if _, layeredAlready := sparse.Rounds(); layeredAlready {
		// No edge was actually pruned; keep the canonical layered form.
		return layered
	}
	if !sparseSafe(in, sparse, s) {
		return layered
	}
	return sparse
}

// sparseSafe decides whether the derived sparse plan provably keeps
// the schedule's guarantees (see the soundness note on SparsePlan).
func sparseSafe(in *Instance, p *Plan, s *Schedule) bool {
	props := s.Guarantees
	if props == 0 {
		return true
	}
	if props.Has(StrongLoopFreedom) && !sparseStrongLFSafe(in, s) {
		return false
	}
	walkProps := props &^ StrongLoopFreedom
	if walkProps == 0 {
		return true
	}
	// Past the exhaustive budget, soundness rests on the walk-projection
	// argument; the seeded spot-check guards the implementation.
	cex, _ := p.CheckIdeals(in, walkProps, maxSparseCheckStates, sparseSpotSamples, 1)
	return cex == nil
}

// sparseStrongLFSafe runs the polynomial double-edge test per
// walk-relevant round with every new-only pending switch modelled as
// permanently in flight — a superset of the rule graphs any sparse
// ideal can produce (removing a new-only switch's rule only removes
// edges), so passing proves strong loop freedom for the sparse plan.
func sparseStrongLFSafe(in *Instance, s *Schedule) bool {
	var newOnly []topo.NodeID
	for _, v := range in.Pending() {
		if in.NewOnly(v) {
			newOnly = append(newOnly, v)
		}
	}
	done := in.NewState()
	inflight := make([]topo.NodeID, 0, in.NumPending())
	for _, round := range s.Rounds {
		inflight = inflight[:0]
		for _, v := range round {
			if !in.NewOnly(v) {
				inflight = append(inflight, v)
			}
		}
		if len(inflight) == 0 {
			continue
		}
		walkCount := len(inflight)
		inflight = append(inflight, newOnly...)
		if !in.RoundSafeStrongLF(done, inflight) {
			return false
		}
		in.Mark(done, inflight[:walkCount]...)
	}
	return true
}

// sortedUniqueInts sorts *xs ascending and removes duplicates in place.
func sortedUniqueInts(xs *[]int) {
	s := *xs
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	*xs = out
}

// CheckIdeals decides props over the plan's reachable transient
// states — its order ideals — and returns the first violating state
// found (nil if none) and whether the verdict is exact. The ideal
// space is enumerated exhaustively (single-flip DFS on the incremental
// walker) while it fits budget states; past the budget, samples seeded
// random linear extensions are replayed instead, checking every prefix
// (each prefix is an ideal), and the verdict is inexact unless a
// violation turned up. The empty ideal is the old configuration for a
// forward plan; for a rollback plan an ideal I is the set of switches
// already uninstalled, so the walk starts from BaseState and the
// enumeration clears bits instead of setting them. The verdict is
// deterministic in (budget, samples, seed).
func (p *Plan) CheckIdeals(in *Instance, props Property, budget, samples int, seed int64) (cex *CounterExample, exact bool) {
	w := in.NewWalker()
	var base State // nil for forward plans: the empty ideal is the old state
	if p.Rollback {
		base = p.BaseState(in)
		w.Reset(base)
	}
	idx := make([]int, len(p.Nodes))
	for i, nd := range p.Nodes {
		idx[i] = in.NodeIndex(nd.Switch)
	}
	check := func() bool {
		if violated := w.Check(props); violated != 0 {
			cex = &CounterExample{Updated: in.CloneState(w.State()), Walk: w.Path(), Violated: violated}
			return false
		}
		return true
	}
	states := 0
	complete := p.VisitIdeals(
		func(node int, _ bool) { w.Flip(idx[node]) },
		func() bool {
			states++
			return states <= budget && check()
		})
	if complete || cex != nil {
		return cex, true
	}
	rng := rand.New(rand.NewSource(seed))
	run := NewPlanRun(p)
	ready := make([]int, 0, len(p.Nodes))
	w.Reset(base)
	if !check() { // the empty ideal
		return cex, false
	}
	for s := 0; s < samples; s++ {
		w.Reset(base)
		ready = run.Reset(ready[:0])
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			i := ready[k]
			ready[k] = ready[len(ready)-1]
			ready = run.Complete(i, ready[:len(ready)-1])
			w.Flip(idx[i])
			if !check() {
				return cex, false
			}
		}
	}
	return nil, false
}

// sparsePlanner wraps a Scheduler whose round construction justifies
// the SparsePlan derivation, adding the PlanScheduler capability.
type sparsePlanner struct{ Scheduler }

// Plan implements PlanScheduler via the scheduler's own rounds.
func (sp sparsePlanner) Plan(in *Instance, props Property) (*Plan, error) {
	s, err := sp.Schedule(in, props)
	if err != nil {
		return nil, err
	}
	return SparsePlan(in, s), nil
}

// PlanByName resolves name through the registry ("" selects
// DefaultAlgorithm) and computes an execution plan. When sparse is set
// and the scheduler implements PlanScheduler the sparse DAG is
// returned; otherwise the schedule's lossless layered plan.
func PlanByName(in *Instance, name string, props Property, sparse bool) (*Plan, error) {
	if name == "" {
		name = DefaultAlgorithm(in)
	}
	sch, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if sparse {
		if ps, ok := sch.(PlanScheduler); ok {
			return ps.Plan(in, props)
		}
	}
	s, err := sch.Schedule(in, props)
	if err != nil {
		return nil, err
	}
	return PlanFromSchedule(s), nil
}

// IdealStates enumerates the plan's reachable transient states as
// instance States, ascending by (popcount, node-index mask) — the
// analogue of enumerating a round's subsets. Intended for tests and
// small plans; it materializes every ideal. Plans with more than 64
// nodes return nil.
func (p *Plan) IdealStates(in *Instance) []State {
	if len(p.Nodes) > 64 {
		return nil
	}
	var masks []uint64
	var cur uint64
	p.VisitIdeals(
		func(node int, on bool) {
			if on {
				cur |= 1 << uint(node)
			} else {
				cur &^= 1 << uint(node)
			}
		},
		func() bool {
			masks = append(masks, cur)
			return true
		})
	for i := 1; i < len(masks); i++ {
		for j := i; j > 0 && idealLess(masks[j], masks[j-1]); j-- {
			masks[j-1], masks[j] = masks[j], masks[j-1]
		}
	}
	out := make([]State, len(masks))
	for k, m := range masks {
		st := in.NewState()
		for i := 0; i < len(p.Nodes); i++ {
			if m&(1<<uint(i)) != 0 {
				in.Mark(st, p.Nodes[i].Switch)
			}
		}
		out[k] = st
	}
	return out
}

func idealLess(a, b uint64) bool {
	ca, cb := bits.OnesCount64(a), bits.OnesCount64(b)
	if ca != cb {
		return ca < cb
	}
	return a < b
}
