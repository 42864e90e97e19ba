package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/topo"
)

// clients is the closed loop's size: one per core of the reference box,
// each waiting for its update's terminal status before sending the next,
// the way updatectl, batchclient and TE apps drive the controller.
const clients = 2

// workload is one traffic mix. Why each one exists is recorded in
// BENCHMARK.json; in short, fattree-churn is dispatch-bound, fattree-p2p
// replays its update sequence through the decentralized path, and
// comb-verify-sparse is proof-bound.
type workload struct {
	name  string
	mode  string // FlowUpdate.Mode sent with every update
	build func(seed int64, mode string) (*scenario, error)
	// rssAt is the update count at which max_rss_mb is read. The
	// controller keeps every job, so a peak read at the end of a timed
	// run would grow with throughput; a fixed count keeps a speed-up
	// from reading as a memory regression. Both are reached within the
	// first few seconds at the rates a 2-core VM sustains (about 1800
	// and 300 updates/s).
	rssAt int64
}

var workloads = []workload{
	{name: "fattree-churn", build: fatTreeScenario, rssAt: 8000},
	{name: "fattree-p2p", mode: "decentralized", build: fatTreeScenario, rssAt: 8000},
	{name: "comb-verify-sparse", build: combScenario, rssAt: 1200},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// flow is one policy the fleet carries: its match, the host it
// delivers to, and the path currently installed. The generator that
// owns the flow advances path as it emits updates.
type flow struct {
	nwDst string
	ip    uint32
	host  string
	path  topo.Path
}

// update is one generated request: which flow it moves, and the entry
// sent to /v1/verify and /v1/updates.
type update struct {
	flow int
	req  api.FlowUpdate
}

// generator emits one client's deterministic update sequence.
type generator interface {
	next() update
}

// scenario is a workload instantiated for one seed: the topology, the
// flows with their initial (old) policies, and one update generator
// per client. The program only ever sees the generated requests.
type scenario struct {
	graph  *topo.Graph
	flows  []*flow
	verify bool // each update is preceded by POST /v1/verify
	gens   [clients]generator
}

// newFlow takes a dotted IPv4 address generated by this file.
func newFlow(nwDst, host string, path topo.Path) *flow {
	ip := binary.BigEndian.Uint32(net.ParseIP(nwDst).To4())
	return &flow{nwDst: nwDst, ip: ip, host: host, path: path}
}

// clientSeed derives one client's stream seed from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client) + 1 }

// FatTree(16): 320 switches, 128 edge switches with one host each.
const (
	fatTreeK     = 16
	fatTreeFlows = 64
)

// fatTree resolves the documented node numbering of topo.FatTree:
// cores 1..(k/2)², then per pod k/2 aggregation and k/2 edge switches.
type fatTree struct {
	g     *topo.Graph
	k     int
	cores int
}

func (ft fatTree) pod(edge topo.NodeID) int { return (int(edge) - ft.cores - 1) / ft.k }

// route is the valley-free path src→dst through core c (0-based): up
// to the aggregation switch of c's group in src's pod, across c, and
// down through the same group's aggregation switch in dst's pod.
func (ft fatTree) route(src, dst topo.NodeID, c int) (topo.Path, error) {
	j := c / (ft.k / 2)
	agg := func(edge topo.NodeID) topo.NodeID { return topo.NodeID(ft.cores + ft.pod(edge)*ft.k + j + 1) }
	p := topo.Path{src, agg(src), topo.NodeID(c + 1), agg(dst), dst}
	if !ft.g.ContainsPath(p) {
		return nil, fmt.Errorf("fat-tree route %v is not in the topology", p)
	}
	return p, nil
}

// fatTreeScenario places fatTreeFlows flows on FatTree(16), each with
// its own nw_dst and a source/destination edge pair in different pods,
// routed through a random core. Client c owns the flows f with
// f%clients == c, so no two in-flight updates ever move the same flow.
func fatTreeScenario(seed int64, mode string) (*scenario, error) {
	g := topo.FatTree(fatTreeK)
	ft := fatTree{g: g, k: fatTreeK, cores: fatTreeK * fatTreeK / 4}
	edges := topo.FatTreeEdges(g)
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{graph: g}
	cores := make([]int, fatTreeFlows)
	for f := 0; f < fatTreeFlows; f++ {
		src := edges[rng.Intn(len(edges))]
		dst := src
		for ft.pod(dst) == ft.pod(src) {
			dst = edges[rng.Intn(len(edges))]
		}
		cores[f] = rng.Intn(ft.cores)
		p, err := ft.route(src, dst, cores[f])
		if err != nil {
			return nil, err
		}
		sc.flows = append(sc.flows, newFlow(fmt.Sprintf("10.1.%d.2", f), fmt.Sprintf("h%d", dst), p))
	}
	for c := 0; c < clients; c++ {
		gen := &fatTreeGen{ft: ft, rng: rand.New(rand.NewSource(clientSeed(seed, c))), flows: sc.flows, mode: mode}
		for f := c; f < fatTreeFlows; f += clients {
			gen.owned = append(gen.owned, f)
			gen.core = append(gen.core, cores[f])
		}
		sc.gens[c] = gen
	}
	return sc, nil
}

// fatTreeGen moves a random owned flow to the route through a
// different, uniformly drawn core, with the default algorithm and plan.
type fatTreeGen struct {
	ft    fatTree
	rng   *rand.Rand
	flows []*flow
	owned []int // global flow indices
	core  []int // current core of each owned flow
	mode  string
}

func (g *fatTreeGen) next() update {
	i := g.rng.Intn(len(g.owned))
	fl := g.flows[g.owned[i]]
	c := g.rng.Intn(g.ft.cores - 1)
	if c >= g.core[i] {
		c++
	}
	// Every core yields a route between edges of different pods, so
	// the error is unreachable once the scenario validated its routes.
	p, err := g.ft.route(fl.path.Src(), fl.path.Dst(), c)
	if err != nil {
		panic(err)
	}
	u := update{flow: g.owned[i], req: api.FlowUpdate{
		OldPath: api.FromPath(fl.path),
		NewPath: api.FromPath(p),
		NWDst:   fl.nwDst,
		Mode:    g.mode,
	}}
	g.core[i] = c
	fl.path = p
	return u
}

// combScenario puts two flows (one per client) on topo.Comb(4,3), 21
// switches, with a host at the shared destination so probes deliver.
// The seed picks each flow's address and which path it starts on.
func combScenario(seed int64, mode string) (*scenario, error) {
	ti := topo.Comb(4, 3)
	host := fmt.Sprintf("h%d", ti.Old.Dst())
	if err := ti.Graph.AddHost(topo.Host{Name: host, Attach: ti.Old.Dst()}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{graph: ti.Graph, verify: true}
	for c := 0; c < clients; c++ {
		start, other := ti.Old, ti.New
		if rng.Intn(2) == 1 {
			start, other = other, start
		}
		fl := newFlow(fmt.Sprintf("10.2.%d.%d", rng.Intn(250)+1, c+2), host, start)
		sc.flows = append(sc.flows, fl)
		sc.gens[c] = &combGen{flow: c, fl: fl, other: other, mode: mode}
	}
	return sc, nil
}

// combGen alternates its flow between the two comb paths with
// greedy-slf and a sparse plan, so the same two inputs repeat exactly.
type combGen struct {
	flow  int
	fl    *flow
	other topo.Path
	mode  string
}

func (g *combGen) next() update {
	u := update{flow: g.flow, req: api.FlowUpdate{
		OldPath:   api.FromPath(g.fl.path),
		NewPath:   api.FromPath(g.other),
		Algorithm: core.AlgoGreedySLF,
		NWDst:     g.fl.nwDst,
		Plan:      "sparse",
		Mode:      g.mode,
	}}
	g.fl.path, g.other = g.other, g.fl.path
	return u
}

// inputKey identifies an update's planning input: (old, new,
// algorithm, plan), the key a verified-plan cache would use.
func inputKey(r api.FlowUpdate) string {
	return fmt.Sprintf("%v>%v|%s|%s", r.OldPath, r.NewPath, r.Algorithm, r.Plan)
}
