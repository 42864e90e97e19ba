//go:build !race

package core

import (
	"testing"

	"tsu/internal/topo"
)

// TestWalkAllocs pins the forwarding-walk allocation budget:
// Instance.Walk allocates exactly the returned path (≤ 1 alloc), and
// the Walker's incremental Flip/Check cycle allocates nothing — the
// hot loops of the explorer and verifier run allocation-free.
func TestWalkAllocs(t *testing.T) {
	ti := topo.Reversal(64)
	in := MustInstance(ti.Old, ti.New, 0)
	pending := in.Pending()
	st := in.StateOf(pending[:len(pending)/2]...)

	if got := testing.AllocsPerRun(200, func() {
		in.Walk(st)
	}); got > 1 {
		t.Fatalf("Instance.Walk = %.1f allocs/op, want <= 1 (the returned path)", got)
	}

	props := NoBlackhole | RelaxedLoopFreedom | StrongLoopFreedom
	w := in.NewWalker()
	w.Reset(nil)
	i := in.NodeIndex(pending[len(pending)/2])
	if got := testing.AllocsPerRun(200, func() {
		w.Flip(i)
		w.Check(props)
		w.Flip(i)
		w.Check(props)
	}); got != 0 {
		t.Fatalf("Walker Flip+Check = %.1f allocs/op, want 0", got)
	}

	rc := NewRoundChecker()
	s, err := Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	done := in.NewState()
	rc.Check(in, done, s.Rounds[0], NoBlackhole|RelaxedLoopFreedom, 0) // warm the buffers
	if got := testing.AllocsPerRun(200, func() {
		rc.Check(in, done, s.Rounds[0], NoBlackhole|RelaxedLoopFreedom, 0)
	}); got != 0 {
		t.Fatalf("RoundChecker.Check (safe round) = %.1f allocs/op, want 0", got)
	}
}

// TestPlanRunAllocs pins the ack-driven dispatcher's per-barrier hot
// path at zero steady-state allocations: with the successor adjacency
// flattened at construction and the ready buffer pre-grown, a full
// Reset-and-drain cycle over the plan — one Complete per barrier
// reply — allocates nothing.
func TestPlanRunAllocs(t *testing.T) {
	ti := topo.Reversal(64)
	in := MustInstance(ti.Old, ti.New, 0)
	s, err := Peacock(in)
	if err != nil {
		t.Fatal(err)
	}
	p := SparsePlan(in, s)
	run := NewPlanRun(p)
	ready := make([]int, 0, p.NumNodes())
	queue := make([]int, 0, p.NumNodes())
	drain := func() {
		ready = run.Reset(ready[:0])
		queue = append(queue[:0], ready...)
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ready = run.Complete(i, ready[:0])
			queue = append(queue, ready...)
		}
	}
	drain() // warm the buffers
	if run.Remaining() != 0 {
		t.Fatalf("drain left %d nodes", run.Remaining())
	}
	if got := testing.AllocsPerRun(200, drain); got != 0 {
		t.Fatalf("PlanRun Reset+Complete drain = %.1f allocs/op, want 0", got)
	}
}

// TestIdealEnumerationAllocs pins the order-ideal proof at a constant
// number of allocations per call, independent of how many ideals the
// plan has: VisitIdeals and CheckIdeals allocate the same on a small
// comb as on Comb(4,3), whose greedy-slf sparse plan has thousands of
// ideals. CheckIdeals builds one PlanRun and shares it between the
// exhaustive pass and the sampled fallback, so falling back costs
// fewer allocations than a second PlanRun.
func TestIdealEnumerationAllocs(t *testing.T) {
	combPlan := func(k, chainLen int) (*Instance, *Plan) {
		ti := topo.Comb(k, chainLen)
		in := MustInstance(ti.Old, ti.New, 0)
		s, err := GreedySLF(in)
		if err != nil {
			t.Fatal(err)
		}
		p := SparsePlan(in, s)
		if !p.Sparse {
			t.Fatalf("Comb(%d,%d): plan fell back to layered", k, chainLen)
		}
		return in, p
	}
	type measured struct{ ideals, visit, check float64 }
	measure := func(in *Instance, p *Plan) measured {
		var m measured
		p.VisitIdeals(func(int, bool) {}, func() bool { m.ideals++; return true })
		m.visit = testing.AllocsPerRun(20, func() {
			p.VisitIdeals(func(int, bool) {}, func() bool { return true })
		})
		m.check = testing.AllocsPerRun(20, func() {
			if cex, exact := p.CheckIdeals(in, p.Guarantees, 1<<20, 0, 1); cex != nil || !exact {
				t.Fatalf("CheckIdeals = %v, exact %t; want a clean exhaustive proof", cex, exact)
			}
		})
		return m
	}
	smallIn, small := combPlan(2, 1)
	bigIn, big := combPlan(4, 3)
	s, b := measure(smallIn, small), measure(bigIn, big)
	if b.ideals < 1000 || b.ideals < 10*s.ideals {
		t.Fatalf("ideals: small comb %v, Comb(4,3) %v; want a much larger space on Comb(4,3)", s.ideals, b.ideals)
	}
	if s.visit != b.visit {
		t.Fatalf("VisitIdeals = %v allocs/op on %v ideals but %v on %v, want the same", s.visit, s.ideals, b.visit, b.ideals)
	}
	if s.check != b.check {
		t.Fatalf("CheckIdeals = %v allocs/op on %v ideals but %v on %v, want the same", s.check, s.ideals, b.check, b.ideals)
	}

	runAllocs := testing.AllocsPerRun(20, func() { NewPlanRun(big) })
	sampled := testing.AllocsPerRun(20, func() {
		if cex, exact := big.CheckIdeals(bigIn, big.Guarantees, 16, 4, 1); cex != nil || exact {
			t.Fatalf("CheckIdeals = %v, exact %t; want a clean sampled verdict", cex, exact)
		}
	})
	if extra := sampled - b.check; extra >= runAllocs {
		t.Fatalf("sampled fallback adds %v allocs/op over the exhaustive pass, a PlanRun costs %v: want the run shared", extra, runAllocs)
	}
}
