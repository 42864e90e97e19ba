package core

import (
	"math/rand"
	"reflect"
	"testing"

	"tsu/internal/topo"
)

func fig1Instance(t *testing.T) *Instance {
	t.Helper()
	return MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
}

// TestPlanFromScheduleRoundTrip pins the lossless conversion: every
// registered scheduler's rounds convert to a layered plan whose
// Rounds()/Schedule() views reproduce the original schedule, with the
// expected shape.
func TestPlanFromScheduleRoundTrip(t *testing.T) {
	in := fig1Instance(t)
	for _, name := range Names() {
		s, err := MustScheduler(name).Schedule(in, 0)
		if err != nil {
			if name == AlgoGreedySLF {
				continue // may stall; not under test here
			}
			t.Fatalf("%s: %v", name, err)
		}
		p := PlanFromSchedule(s)
		if err := p.Validate(in); err != nil {
			t.Fatalf("%s: layered plan invalid: %v", name, err)
		}
		rounds, layered := p.Rounds()
		if !layered {
			t.Fatalf("%s: layered plan not detected as layered", name)
		}
		if !reflect.DeepEqual(rounds, s.Rounds) {
			t.Fatalf("%s: rounds round-trip: got %v want %v", name, rounds, s.Rounds)
		}
		back, ok := p.Schedule()
		if !ok || back.Algorithm != s.Algorithm || back.Guarantees != s.Guarantees {
			t.Fatalf("%s: schedule view = %+v ok=%t", name, back, ok)
		}
		if p.Depth() != s.NumRounds() {
			t.Fatalf("%s: depth %d, want round count %d", name, p.Depth(), s.NumRounds())
		}
		wantWidth := 0
		for _, r := range s.Rounds {
			if len(r) > wantWidth {
				wantWidth = len(r)
			}
		}
		if p.Width() != wantWidth {
			t.Fatalf("%s: width %d, want %d", name, p.Width(), wantWidth)
		}
		if p.CriticalPath() != s.NumRounds()-1 {
			t.Fatalf("%s: critical path %d, want %d", name, p.CriticalPath(), s.NumRounds()-1)
		}
	}
}

// TestLayeredPlanIdealsAreRoundStates pins the state-space equivalence
// the whole plan layer rests on: the order ideals of a layered plan
// are exactly the schedule's reachable round states (completed rounds
// plus any subset of one in-flight round).
func TestLayeredPlanIdealsAreRoundStates(t *testing.T) {
	in := fig1Instance(t)
	s, err := WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	p := PlanFromSchedule(s)
	ideals := p.IdealStates(in)

	// Enumerate round states directly.
	var want []State
	seen := map[string]bool{}
	add := func(st State) {
		k := stateKey(st)
		if !seen[k] {
			seen[k] = true
			want = append(want, st)
		}
	}
	done := in.NewState()
	for _, round := range s.Rounds {
		for mask := 0; mask < 1<<len(round); mask++ {
			st := in.CloneState(done)
			for j, v := range round {
				if mask&(1<<j) != 0 {
					in.Mark(st, v)
				}
			}
			add(st)
		}
		in.Mark(done, round...)
	}
	add(in.CloneState(done))

	if len(ideals) != len(want) {
		t.Fatalf("ideal count %d, want %d round states", len(ideals), len(want))
	}
	got := map[string]bool{}
	for _, st := range ideals {
		got[stateKey(st)] = true
	}
	for _, st := range want {
		if !got[stateKey(st)] {
			t.Fatalf("round state %v missing from plan ideals", in.StateNodes(st))
		}
	}
}

func stateKey(st State) string {
	b := make([]byte, 0, 8*len(st))
	for _, w := range st {
		for k := 0; k < 8; k++ {
			b = append(b, byte(w>>(8*k)))
		}
	}
	return string(b)
}

// TestSparsePlanFig1 pins the sparse derivation on the Fig.1 update
// (no waypoint, so Peacock applies): the only edges are the new-only
// rule chains feeding each old-path switch — 7,8 → 1 and 9,10,11 → 3
// — and the derived plan is safe in every order ideal.
func TestSparsePlanFig1(t *testing.T) {
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p, err := PlanByName(in, AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sparse {
		t.Fatalf("peacock Fig.1 plan not sparse: %s", p)
	}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if g, w := p.NumEdges(), 5; g != w {
		t.Fatalf("edges = %d, want %d (%s)", g, w, p)
	}
	deps := map[topo.NodeID][]topo.NodeID{}
	for _, nd := range p.Nodes {
		var ds []topo.NodeID
		for _, d := range nd.Deps {
			ds = append(ds, p.Nodes[d].Switch)
		}
		deps[nd.Switch] = ds
	}
	if !reflect.DeepEqual(deps[1], []topo.NodeID{7, 8}) {
		t.Fatalf("deps of 1 = %v, want [7 8]", deps[1])
	}
	if !reflect.DeepEqual(deps[3], []topo.NodeID{9, 10, 11}) {
		t.Fatalf("deps of 3 = %v, want [9 10 11]", deps[3])
	}
	// The sparse plan must still be provably safe: every ideal clean.
	w := in.NewWalker()
	idx := make([]int, len(p.Nodes))
	for i, nd := range p.Nodes {
		idx[i] = in.NodeIndex(nd.Switch)
	}
	complete := p.VisitIdeals(
		func(node int, _ bool) { w.Flip(idx[node]) },
		func() bool { return w.Check(p.Guarantees) == 0 })
	if !complete {
		t.Fatal("sparse plan has a violating order ideal")
	}
}

// TestSparsePlanNeverWeakensGuarantees property-tests the SparsePlan
// backstop: for random two-path instances, every sparse plan emitted
// by a PlanScheduler keeps its guarantees in every order ideal.
func TestSparsePlanNeverWeakensGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		ti := topo.RandomTwoPath(rng, 4+rng.Intn(9), false)
		in := MustInstance(ti.Old, ti.New, 0)
		if in.NumPending() == 0 {
			continue
		}
		for _, name := range []string{AlgoPeacock, AlgoGreedySLF} {
			ps, ok := MustScheduler(name).(PlanScheduler)
			if !ok {
				t.Fatalf("%s does not implement PlanScheduler", name)
			}
			p, err := ps.Plan(in, 0)
			if err != nil {
				continue // scheduler declined the instance
			}
			if err := p.Validate(in); err != nil {
				t.Fatalf("%s on %v: invalid plan: %v", name, in, err)
			}
			w := in.NewWalker()
			idx := make([]int, len(p.Nodes))
			for i, nd := range p.Nodes {
				idx[i] = in.NodeIndex(nd.Switch)
			}
			complete := p.VisitIdeals(
				func(node int, _ bool) { w.Flip(idx[node]) },
				func() bool { return w.Check(p.Guarantees) == 0 })
			if !complete {
				t.Fatalf("%s on %v: sparse=%t plan violates %s in some ideal",
					name, in, p.Sparse, p.Guarantees)
			}
		}
	}
}

// TestSparsePlanComb pins the branch-parallel family the dispatch
// benchmark runs on: GreedySLF needs chainLen+1 lock-step rounds on a
// comb, while its sparse plan has depth 2 — each detour chain feeds
// only its own spine switch. The small comb's ideal space fits the
// exhaustive proof; the benchmark-sized one exercises the
// walk-projection argument plus spot-check path. Both must come out
// sparse.
func TestSparsePlanComb(t *testing.T) {
	for _, tc := range []struct{ k, chainLen int }{{3, 4}, {12, 8}} {
		ti := topo.Comb(tc.k, tc.chainLen)
		in := MustInstance(ti.Old, ti.New, 0)
		s, err := GreedySLF(in)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumRounds() != tc.chainLen+1 {
			t.Fatalf("Comb(%d,%d): greedy rounds = %d, want %d",
				tc.k, tc.chainLen, s.NumRounds(), tc.chainLen+1)
		}
		p := SparsePlan(in, s)
		if !p.Sparse {
			t.Fatalf("Comb(%d,%d): plan fell back to layered", tc.k, tc.chainLen)
		}
		if p.Depth() != 2 || p.NumEdges() != tc.k*tc.chainLen {
			t.Fatalf("Comb(%d,%d): depth %d edges %d, want depth 2, %d edges",
				tc.k, tc.chainLen, p.Depth(), p.NumEdges(), tc.k*tc.chainLen)
		}
	}
}

// TestPlanRun drives the dispatch bookkeeping over the Fig.1 sparse
// plan: roots release immediately, each completion releases exactly
// the nodes whose dependencies are all confirmed, and the run drains.
func TestPlanRun(t *testing.T) {
	in := MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, 0)
	p, err := PlanByName(in, AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	run := NewPlanRun(p)
	ready := run.Reset(nil)
	if len(ready) != 5 { // the five new-only switches
		t.Fatalf("initial ready = %v, want the 5 roots", ready)
	}
	if run.Remaining() != p.NumNodes() {
		t.Fatalf("remaining = %d", run.Remaining())
	}
	completed := map[int]bool{}
	queue := append([]int(nil), ready...)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, d := range p.Nodes[i].Deps {
			if !completed[d] {
				t.Fatalf("node %d released before dep %d completed", i, d)
			}
		}
		completed[i] = true
		queue = append(queue, run.Complete(i, nil)...)
	}
	if len(completed) != p.NumNodes() || run.Remaining() != 0 {
		t.Fatalf("completed %d of %d, remaining %d", len(completed), p.NumNodes(), run.Remaining())
	}
}

// TestPlanCodecRoundTrip pins decode(encode(p)) == p for layered and
// sparse plans of every registered scheduler.
func TestPlanCodecRoundTrip(t *testing.T) {
	in := fig1Instance(t)
	var plans []*Plan
	for _, name := range Names() {
		s, err := MustScheduler(name).Schedule(in, 0)
		if err != nil {
			continue
		}
		plans = append(plans, PlanFromSchedule(s))
		if p, err := PlanByName(in, name, 0, true); err == nil {
			plans = append(plans, p)
		}
	}
	plans = append(plans, &Plan{Algorithm: "empty"})
	for _, p := range plans {
		enc := EncodePlan(p)
		dec, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", p, err)
		}
		if !reflect.DeepEqual(normalizePlan(p), normalizePlan(dec)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, p)
		}
		reenc := EncodePlan(dec)
		if !reflect.DeepEqual(enc, reenc) {
			t.Fatalf("%s: re-encode differs", p)
		}
	}
}

// normalizePlan maps empty dep slices to nil so DeepEqual compares
// structure, not nil-vs-empty encoding artifacts.
func normalizePlan(p *Plan) *Plan {
	c := *p
	c.Nodes = make([]PlanNode, len(p.Nodes))
	for i, n := range p.Nodes {
		c.Nodes[i] = n
		if len(n.Deps) == 0 {
			c.Nodes[i].Deps = nil
		}
	}
	return &c
}

// TestPlanCodecRejects pins structured failures (never panics) on
// malformed wire bytes.
func TestPlanCodecRejects(t *testing.T) {
	in := fig1Instance(t)
	s, err := WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	good := EncodePlan(PlanFromSchedule(s))
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOPE"),
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0),
		"bad version":  append([]byte("TSUP"), 99),
		"self dep":     {'T', 'S', 'U', 'P', 1, 0, 0, 0, 1, 1, 1, 0},
		"huge nodes":   {'T', 'S', 'U', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"nonminimal":   {'T', 'S', 'U', 'P', 1, 0x80, 0x00, 0, 0, 0},
		"unknown flag": {'T', 'S', 'U', 'P', 1, 0, 0, 8, 0},
		// Node 1 with one dep whose varint is 2^63: int() would wrap
		// negative and index-panic every consumer if accepted.
		"dep overflow": {'T', 'S', 'U', 'P', 1, 0, 0, 0, 2, 1, 0, 1, 1,
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	}
	for name, data := range cases {
		p, err := DecodePlan(data)
		if err == nil {
			t.Fatalf("%s: decode accepted %v as %+v", name, data, p)
		}
	}
}

// visitIdealsRef is the reference enumerator VisitIdeals replaced: the
// same include-before-exclude DFS on the smallest eligible node, but it
// rescans every node and its dependencies at each step.
func visitIdealsRef(p *Plan, flip func(node int, on bool), visit func() bool) bool {
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

// randomDAGPlan returns a plan over n nodes whose edges follow a random
// topological order, so node indices need not be topological: a node
// may depend on a higher-indexed one. density is the edge probability
// between two nodes in order.
func randomDAGPlan(rng *rand.Rand, n int, density float64) *Plan {
	pos := rng.Perm(n)
	p := &Plan{Nodes: make([]PlanNode, n)}
	for i := range p.Nodes {
		for j := 0; j < n; j++ {
			if pos[j] < pos[i] && rng.Float64() < density {
				p.Nodes[i].Deps = append(p.Nodes[i].Deps, j)
			}
		}
	}
	return p
}

// idealEventLog runs an enumerator and records its flip(node, on) and
// visit callbacks in order (a flip as 2·node+on, a visit as -1);
// visit aborts the run at its limit-th call.
func idealEventLog(enum func(flip func(int, bool), visit func() bool) bool, limit int) ([]int, bool) {
	var log []int
	visits := 0
	complete := enum(
		func(node int, on bool) {
			e := 2 * node
			if on {
				e++
			}
			log = append(log, e)
		},
		func() bool {
			log = append(log, -1)
			visits++
			return visits < limit
		})
	return log, complete
}

// TestVisitIdealsMatchesReference pins the incremental enumerator to
// the reference one event for event — the same flips and visits in the
// same order, and the same completion verdict — on seeded random DAGs:
// empty and one-node plans, plans past 64 nodes (multi-word bitsets),
// sparse and dense, run to completion or aborted at a random visit.
func TestVisitIdealsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 400; trial++ {
		var n int
		switch {
		case trial < 2:
			n = trial
		case trial%4 == 0:
			n = 65 + rng.Intn(26)
		default:
			n = 2 + rng.Intn(20)
		}
		density := []float64{0.02, 0.1, 0.3, 0.7}[rng.Intn(4)]
		p := randomDAGPlan(rng, n, density)
		limit := 50000
		if rng.Intn(2) == 0 {
			limit = 1 + rng.Intn(2000)
		}
		want, wantDone := idealEventLog(func(f func(int, bool), v func() bool) bool { return visitIdealsRef(p, f, v) }, limit)
		got, gotDone := idealEventLog(p.VisitIdeals, limit)
		if gotDone != wantDone || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d density=%g limit=%d): VisitIdeals diverges from the reference: complete %t/%t, %d/%d events",
				trial, n, density, limit, gotDone, wantDone, len(got), len(want))
		}
	}
}
