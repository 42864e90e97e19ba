package controller

import (
	"bytes"
	"slices"
	"testing"

	"tsu/internal/core"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// TestRebuildJobMatchesAdmitted round-trips admitted jobs through their
// journal admission record: the job Recover rebuilds must execute the
// very DAG that was admitted — same installs, FlowMod bytes,
// dependencies, layers, cleanup flags and shape — for a layered
// schedule, a schedule with cleanup, and a sparse plan with cleanup.
func TestRebuildJobMatchesAdmitted(t *testing.T) {
	ctrl, err := New(Config{Topology: topo.Fig1()})
	if err != nil {
		t.Fatal(err)
	}
	e := ctrl.Engine()
	in := core.MustInstance(topo.Fig1OldPath, topo.Fig1NewPath, topo.Fig1Waypoint)
	sched, err := core.WayUp(in)
	if err != nil {
		t.Fatal(err)
	}
	inB := fig1NoWpInstance(t)
	sparse, err := core.PlanByName(inB, core.AlgoPeacock, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Sparse {
		t.Fatalf("plan %v is not sparse", sparse)
	}

	submit := map[string]func() (*Job, error){
		"schedule": func() (*Job, error) { return e.Submit(in, sched, flowMatch("10.0.0.2"), 0) },
		"schedule-cleanup": func() (*Job, error) {
			return e.SubmitPlan(in, core.PlanFromSchedule(sched), flowMatch("10.0.0.3"), SubmitOptions{Cleanup: true})
		},
		"sparse-cleanup": func() (*Job, error) {
			return e.SubmitPlan(inB, sparse, flowMatch("10.0.0.4"), SubmitOptions{Cleanup: true})
		},
	}
	for name, fn := range submit {
		job, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := e.rebuildJob(&recoveredJob{id: job.ID, admit: admitSpec(job)})
		if err != nil {
			t.Fatalf("%s: rebuild: %v", name, err)
		}
		assertSameExecPlan(t, name, job, got)
	}
}

func assertSameExecPlan(t *testing.T, name string, want, got *Job) {
	t.Helper()
	if len(got.plan.nodes) != len(want.plan.nodes) || len(got.plan.dag.Nodes) != len(want.plan.dag.Nodes) {
		t.Fatalf("%s: rebuilt %d nodes, admitted %d", name, len(got.plan.nodes), len(want.plan.nodes))
	}
	cleanup := 0
	for i := range want.plan.nodes {
		w, g := &want.plan.nodes[i], &got.plan.nodes[i]
		if w.cleanup {
			cleanup++
		}
		if g.node != w.node || g.layer != w.layer || g.cleanup != w.cleanup {
			t.Fatalf("%s: node %d rebuilt as (switch %d, layer %d, cleanup %v), admitted (switch %d, layer %d, cleanup %v)",
				name, i, g.node, g.layer, g.cleanup, w.node, w.layer, w.cleanup)
		}
		if gd, wd := got.plan.dag.Nodes[i], want.plan.dag.Nodes[i]; gd.Switch != w.node || !slices.Equal(gd.Deps, wd.Deps) {
			t.Fatalf("%s: node %d rebuilt as %v, admitted %v", name, i, gd, wd)
		}
		wb, err := openflow.Encode(w.fm)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := openflow.Encode(g.fm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s: node %d FlowMod rebuilt as %x, admitted %x", name, i, gb, wb)
		}
	}
	if wantCleanup := name != "schedule"; (cleanup > 0) != wantCleanup {
		t.Fatalf("%s: %d cleanup nodes", name, cleanup)
	}
	wd, ww, wc, ws := want.PlanShape()
	gd, gw, gc, gs := got.PlanShape()
	if gd != wd || gw != ww || gc != wc || gs != ws || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: rebuilt shape (%d,%d,%d,%v,%d edges), admitted (%d,%d,%d,%v,%d edges)",
			name, gd, gw, gc, gs, got.NumEdges(), wd, ww, wc, ws, want.NumEdges())
	}
}
