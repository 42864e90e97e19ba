package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/topo"
)

// sequence renders the first n updates of every client as JSON.
func sequence(t *testing.T, w workload, seed int64, n int) []byte {
	t.Helper()
	sc, err := w.build(seed, w.mode)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			if err := enc.Encode(sc.gens[c].next().req); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := sequence(t, w, 42, 300), sequence(t, w, 42, 300)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave different update sequences")
			}
			if bytes.Equal(a, sequence(t, w, 43, 300)) {
				t.Fatal("seeds 42 and 43 gave the same update sequence")
			}
		})
	}
}

func TestP2PReplaysChurnSequence(t *testing.T) {
	churn, err := lookupWorkload("fattree-churn")
	if err != nil {
		t.Fatal(err)
	}
	p2p, err := lookupWorkload("fattree-p2p")
	if err != nil {
		t.Fatal(err)
	}
	a, err := churn.build(7, churn.mode)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2p.build(7, p2p.mode)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < 300; i++ {
			ua, ub := a.gens[c].next(), b.gens[c].next()
			if ub.req.Mode != "decentralized" {
				t.Fatalf("fattree-p2p update has mode %q", ub.req.Mode)
			}
			ub.req.Mode = ua.req.Mode
			ja, _ := json.Marshal(ua.req)
			jb, _ := json.Marshal(ub.req)
			if ua.flow != ub.flow || !bytes.Equal(ja, jb) {
				t.Fatalf("client %d update %d: %s vs %s", c, i, ja, jb)
			}
		}
	}
}

// TestFatTreeUpdatesChain checks that each update starts where the
// flow's previous one ended and moves it to a different core.
func TestFatTreeUpdatesChain(t *testing.T) {
	sc, err := fatTreeScenario(3, "")
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]topo.Path, len(sc.flows))
	for f, fl := range sc.flows {
		cur[f] = fl.path
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < 500; i++ {
			u := sc.gens[c].next()
			if u.flow%clients != c {
				t.Fatalf("client %d moved flow %d it does not own", c, u.flow)
			}
			old, nw := api.ToPath(u.req.OldPath), api.ToPath(u.req.NewPath)
			if !old.Equal(cur[u.flow]) {
				t.Fatalf("update of flow %d starts at %v, flow is on %v", u.flow, old, cur[u.flow])
			}
			if old[2] == nw[2] || old.Src() != nw.Src() || old.Dst() != nw.Dst() || !sc.graph.ContainsPath(nw) {
				t.Fatalf("update %v -> %v is not a reroute through another core", old, nw)
			}
			cur[u.flow] = nw
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly, traced, and requires
// the correctness gate to pass and every per-layer metric to be there.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live deployments")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w.name, 5, 2*time.Second, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, name := range []string{"api.submit_p50_ms", "core.sparse_plan_ms", "verify.plan_ms",
				"controller.exec_p50_ms", "switchsim.table_entries", "journal.bytes_per_update", "trace.overhead_frac"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
			if v := res.Metrics["journal.bytes_per_update"].Value; v <= 0 {
				t.Errorf("journal.bytes_per_update = %v, want > 0", v)
			}
		})
	}
}

func TestGateRejectsWrongFinalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a live deployment")
	}
	sc, err := combScenario(1, "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy(sc, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close() //nolint:errcheck // test teardown
	fl := sc.flows[0]
	if err := checkPath(d.fabric, fl); err != nil {
		t.Fatalf("installed path rejected: %v", err)
	}
	// Claim the flow moved to the other comb path without updating it.
	installed := fl.path
	fl.path = sc.gens[0].(*combGen).other
	if err := checkPath(d.fabric, fl); err == nil {
		t.Fatalf("gate accepted %v while the fleet forwards along %v", fl.path, installed)
	}
}

func TestGateRejectsUnsafePlan(t *testing.T) {
	req := api.FlowUpdate{
		OldPath:  api.FromPath(topo.Fig1OldPath),
		NewPath:  api.FromPath(topo.Fig1NewPath),
		Waypoint: uint64(topo.Fig1Waypoint),
		NWDst:    "10.0.0.2",
	}
	for algo, safe := range map[string]bool{core.AlgoOneShot: false, core.AlgoWayUp: true, core.AlgoPeacock: true} {
		req.Algorithm = algo
		p, err := replan(req)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := verifyPlan(p); (err == nil) != safe {
			t.Errorf("%s: verifyPlan = %v, want safe=%v", algo, err, safe)
		}
	}
}

func TestGateRejectsMisreportedPlan(t *testing.T) {
	req := api.FlowUpdate{OldPath: api.FromPath(topo.Fig1OldPath), NewPath: api.FromPath(topo.Fig1NewPath), NWDst: "10.0.0.2"}
	p, err := replan(req)
	if err != nil {
		t.Fatal(err)
	}
	rounds, shape := api.FromRounds(p.sched.Rounds), shapeOf(p.dag)
	if err := matches(p, p.sched.Algorithm, rounds, &shape); err != nil {
		t.Fatalf("faithful report rejected: %v", err)
	}
	swapped := append([][]uint64{rounds[len(rounds)-1]}, rounds[:len(rounds)-1]...)
	if err := matches(p, p.sched.Algorithm, swapped, &shape); err == nil {
		t.Error("reordered rounds accepted")
	}
	deeper := shape
	deeper.Depth++
	if err := matches(p, p.sched.Algorithm, rounds, &deeper); err == nil {
		t.Error("wrong plan depth accepted")
	}
}

func TestTimingSummaries(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	tm := newTiming(ds)
	if got := tm.pct(0.5); got != 500*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if p, ok := tm.tail(); !ok || p != 0.99 {
		t.Errorf("tail = %v %v, want p99 (exactly 10 samples beyond it)", p, ok)
	}
	if got, want := groupedMedian([]int64{1, 1, 1, 2}), 0.5+2.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("grouped median = %v", got)
	}
}
