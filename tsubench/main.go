// Command tsubench is the repository's benchmark: sustained /v1 update
// churn over a live switch fleet, measured end to end and per layer.
//
// One run starts the controller with its /v1 REST API and a switchsim
// fleet over loopback TCP (the defaults of cmd/controller and
// experiments.NewBed: no modelled latencies, wall clock), installs each
// flow's old policy, and drives a closed loop of two clients through
// internal/client: each client sends its next generated update only
// after client.Wait returned the previous one's terminal status. After
// the load it runs a correctness gate, prints every metric by name and
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 every
// other second of the load is traced, and the run reports the per-layer
// metrics: timings from spans recorded around each call into a layer
// (written to -out as JSON lines), counts from the controller's healthz,
// the job statuses and the fleet's counters, and the journal's counters
// from a short journaled phase that follows.
//
// Usage (bench.sh builds it and passes -out):
//
//	tsubench -workload fattree-churn -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/metrics"
	"tsu/internal/verify"
)

const (
	// A run builds the deployment at least minSetups times and until
	// setupBudget has been spent (at most maxSetups times); setup_s is
	// the median and the last deployment carries the load.
	minSetups   = 9
	maxSetups   = 200
	setupBudget = time.Second
	// journalLen is the journaled phase of a traced run.
	journalLen = 3 * time.Second
	// warmup runs the load before anything is measured, so connection
	// pools, caches and the heap reach steady state.
	warmup = time.Second
	// verifyProbes bounds the post-load /v1/verify round trips timed on
	// workloads whose updates do not verify first.
	verifyProbes = 256
	// deadline bounds a whole run; a run that overstays it is killed.
	deadline = 170 * time.Second
)

func main() {
	workloadName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured load phase length in seconds")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/tsubench", "directory for the journal file and the span dump")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "tsubench: -trace must be 0 or 1")
		os.Exit(1)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "tsubench: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	res, err := run(*workloadName, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsubench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsubench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints each metric as it is added and collects the ones the
// JSON line carries.
type report struct {
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	fmt.Printf("  %-34s %12.6g %-6s %s\n", name, v, unit, note)
	if r.metrics != nil {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

func run(name string, seed int64, dur time.Duration, traced bool, out string) (*result, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if dur < 2*windowLen {
		return nil, fmt.Errorf("-seconds must be at least %v", 2*windowLen)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	sc, err := w.build(seed, w.mode)
	if err != nil {
		return nil, err
	}

	var d *deployment
	var setupTimes []time.Duration
	for spent := time.Duration(0); len(setupTimes) < maxSetups && (len(setupTimes) < minSetups || spent < setupBudget); {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		start := time.Now()
		if d, err = deploy(sc, seed, false, out); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start))
		spent += setupTimes[len(setupTimes)-1]
	}
	defer func() {
		if d != nil {
			d.close() //nolint:errcheck // teardown after the result is final
		}
	}()

	fmt.Printf("tsubench %s seed %d: %d switches, %d flows, %d clients (closed loop), %v measured\n",
		w.name, seed, len(d.switches), len(sc.flows), clients, dur)

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	l := &loader{d: d, sc: sc, rssAt: w.rssAt}
	first, err := takeSnapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	all, _ := l.phase(ctx, warmup, nil)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	before, err := takeSnapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	outs, windows := l.phase(ctx, dur, tr)
	after, err := takeSnapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	all = append(all, outs...)

	e2e := &report{}
	if !traced {
		e2e.metrics = map[string]metric{}
		fmt.Println("end to end:")
	} else {
		fmt.Println("end to end (untraced windows):")
	}
	untraced := endToEnd(e2e, l, outs, windows, setupTimes)

	res := &result{Correct: true, Attempted: len(all), Failed: len(all) - done(all), Metrics: e2e.metrics}
	plans, err := gate(d, sc, all, first, after)
	if err != nil {
		fmt.Println("correctness gate: FAIL:", err)
		res.Correct = false
		return res, nil
	}
	fmt.Printf("correctness gate: ok (%d updates done, %d flows on their final paths, %d distinct inputs re-planned and verified)\n",
		len(all), len(sc.flows), len(plans))
	if !traced {
		return res, nil
	}

	costs, err := layerPass(ctx, d, sc, outs, plans, tr)
	if err != nil {
		fmt.Println("layer pass: FAIL:", err)
		res.Correct = false
		return res, nil
	}
	layers := &report{metrics: map[string]metric{}}
	fmt.Println("per layer (traced windows, and counters over the whole phase):")
	perLayer(layers, d, tr, outs, all, costs, windows, before, after, untraced)
	// The journaled phase builds a deployment of its own.
	if err := d.close(); err != nil {
		return nil, err
	}
	d = nil
	js, err := journalPhase(ctx, sc, seed, out)
	if err != nil {
		fmt.Println("journaled phase: FAIL:", err)
		res.Correct = false
		return res, nil
	}
	res.Attempted += js.updates
	js.report(layers)
	res.Metrics = layers.metrics
	spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", spans)
	return res, nil
}

// snapshot is the process and system counters at one instant between
// phases.
type snapshot struct {
	gcCPU, busyCPU       float64 // runtime/metrics cpu-seconds
	allocs, allocBytes   uint64
	health               *api.Healthz
	fleet                fleetCounters
	batchN, batchSum     int64 // ofconn batched writes, messages in them
	journalN, journalSum int64 // grouped journal records, nodes in them
	goroutines           int
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func takeSnapshot(ctx context.Context, d *deployment) (snapshot, error) {
	var s snapshot
	samples := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	s.gcCPU = samples[0].Value.Float64()
	s.busyCPU = samples[1].Value.Float64() - samples[2].Value.Float64()
	s.allocs = samples[3].Value.Uint64()
	s.allocBytes = samples[4].Value.Uint64()
	var err error
	if s.health, err = d.client.Healthz(ctx); err != nil {
		return s, fmt.Errorf("healthz: %w", err)
	}
	s.fleet = d.counters()
	s.batchN, s.batchSum = metrics.DispatchBatchMsgs.Count(), metrics.DispatchBatchMsgs.Sum()
	s.journalN, s.journalSum = metrics.JournalBatchWidth.Count(), metrics.JournalBatchWidth.Sum()
	s.goroutines = runtime.NumGoroutine()
	return s, nil
}

func maxRSS() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

func latencies(outs []*outcome) []time.Duration {
	ds := make([]time.Duration, 0, len(outs))
	for _, o := range outs {
		ds = append(ds, o.latency())
	}
	return ds
}

func done(outs []*outcome) int {
	n := 0
	for _, o := range outs {
		if !o.failed() {
			n++
		}
	}
	return n
}

// windowStats are the medians over one kind of window (traced or
// not) of a phase.
type windowStats struct {
	n                        int
	throughput, cpu, cpuUtil float64 // 1/s, ms per update, cores
}

func statsOf(windows []window, traced bool) windowStats {
	var tput, cpu, util []float64
	for _, w := range windows {
		if w.traced != traced {
			continue
		}
		tput = append(tput, ratio(float64(w.done), w.dur.Seconds()))
		util = append(util, ratio(w.cpu.Seconds(), w.dur.Seconds()))
		if w.done > 0 {
			cpu = append(cpu, ratio(ms(w.cpu), float64(w.done)))
		}
	}
	return windowStats{n: len(tput), throughput: medianOf(tput), cpu: medianOf(cpu), cpuUtil: medianOf(util)}
}

// endToEnd reports the metrics a user of the system sees, from the
// untraced windows and updates, and returns the throughput.
func endToEnd(r *report, l *loader, outs []*outcome, windows []window, setupTimes []time.Duration) float64 {
	var plain []*outcome
	for _, o := range outs {
		if !o.traced {
			plain = append(plain, o)
		}
	}
	ws := statsOf(windows, false)
	n := done(plain)
	r.add("updates_per_s", ws.throughput, "1/s", fmt.Sprintf("(median of %d one-second windows; process.cpu_util %.2f cores)", ws.n, ws.cpuUtil))
	lat := newTiming(latencies(plain))
	r.add("update_p50_ms", ms(lat.pct(0.5)), "ms", "("+lat.describe(time.Millisecond, "ms")+")")
	note := ""
	if p, _ := lat.tail(); p < 0.99 {
		note = fmt.Sprintf("(only %d samples: fewer than 10 beyond p99)", lat.n())
	}
	r.add("update_p99_ms", ms(lat.pct(0.99)), "ms", note)
	fmt.Printf("  %-34s %12.6g %-6s (%d failed of %d attempted)\n", "failed_frac",
		ratio(float64(len(plain)-n), float64(len(plain))), "ratio", len(plain)-n, len(plain))
	r.add("cpu_ms_per_update", ws.cpu, "ms", "(median over the windows of user+sys CPU per update done)")
	if l.rss > 0 {
		r.add("max_rss_mb", l.rss, "MB", fmt.Sprintf("(peak resident set of the process by update %d)", l.rssAt))
	} else {
		r.add("max_rss_mb", maxRSS(), "MB", fmt.Sprintf("(peak resident set at the end: the run did not reach update %d)", l.rssAt))
	}
	secs := make([]float64, len(setupTimes))
	for i, t := range setupTimes {
		secs[i] = t.Seconds()
	}
	r.add("setup_s", medianOf(secs), "s", fmt.Sprintf("(median of %d set-ups: %v)", len(setupTimes), setupTimes))
	return ws.throughput
}

// gate runs the correctness checks (see gate.go) against the final
// deployment state.
func gate(d *deployment, sc *scenario, all []*outcome, first, last snapshot) (map[string]*plan, error) {
	if err := checkOutcomes(all); err != nil {
		return nil, err
	}
	for _, fl := range sc.flows {
		if err := checkPath(d.fabric, fl); err != nil {
			return nil, err
		}
	}
	if dropped := last.health.Dispatch.AcksDropped - first.health.Dispatch.AcksDropped; dropped != 0 {
		return nil, fmt.Errorf("%d barrier acks dropped", dropped)
	}
	return checkInputs(all)
}

// inputCost is one distinct input of the traced phase: how many of its
// updates used it and what one call into each layer took on it.
type inputCost struct {
	updates                int
	schedule, sparse, plan time.Duration
	ideals                 int
}

// layerPass calls each layer's public function once per distinct input
// of the traced phase, in first-occurrence order, inside a span:
// core.ScheduleByName, core.SparsePlan, and verify.Plan on the sparse
// DAG; it counts the order ideals of the executed DAG. On workloads
// that do not verify during the load it also times up to verifyProbes
// /v1/verify round trips.
func layerPass(ctx context.Context, d *deployment, sc *scenario, outs []*outcome, plans map[string]*plan, tr *tracer) ([]*inputCost, error) {
	byKey := make(map[string]*inputCost)
	var costs []*inputCost
	probes := 0
	for _, o := range outs {
		key := inputKey(o.req)
		if c, seen := byKey[key]; seen {
			c.updates++
			continue
		}
		c := &inputCost{updates: 1}
		byKey[key] = c
		costs = append(costs, c)
		p := plans[key]
		sp := tr.begin(postLoad, "core.ScheduleByName", 0, o.id)
		sched, err := core.ScheduleByName(p.in, o.req.Algorithm, 0)
		tr.end(postLoad, sp)
		if err != nil {
			return nil, err
		}
		sp2 := tr.begin(postLoad, "core.SparsePlan", 0, o.id)
		sparse := core.SparsePlan(p.in, sched)
		tr.end(postLoad, sp2)
		sp3 := tr.begin(postLoad, "verify.Plan", 0, o.id)
		rep := verify.Plan(p.in, sparse, p.props, verify.Options{})
		tr.end(postLoad, sp3)
		if !rep.OK() {
			return nil, fmt.Errorf("verify.Plan rejects the sparse %s plan of %v: %s", sched.Algorithm, key, rep)
		}
		c.schedule, c.sparse, c.plan = tr.dur(postLoad, sp), tr.dur(postLoad, sp2), tr.dur(postLoad, sp3)
		p.dag.VisitIdeals(func(int, bool) {}, func() bool { c.ideals++; return true })
		if !sc.verify && probes < verifyProbes {
			probes++
			sp = tr.begin(postLoad, "client.Verify", 0, o.id)
			vr, err := d.client.Verify(ctx, api.VerifyRequest{Updates: []api.FlowUpdate{o.req}})
			tr.end(postLoad, sp)
			if err != nil {
				return nil, err
			}
			if !vr.OK {
				return nil, fmt.Errorf("/v1/verify rejects %v", key)
			}
		}
	}
	return costs, nil
}

// perUpdateMean weighs each distinct input's cost by its updates, so
// the figure is what one update of the workload pays on average.
func perUpdateMean(costs []*inputCost, f func(*inputCost) float64) float64 {
	var sum, n float64
	for _, c := range costs {
		sum += float64(c.updates) * f(c)
		n += float64(c.updates)
	}
	return ratio(sum, n)
}

// journalStats are the journal's counters over a journaled phase.
type journalStats struct {
	updates        int
	bytes          int64
	records, nodes int64
}

func (js journalStats) report(r *report) {
	r.add("journal.bytes_per_update", ratio(float64(js.bytes), float64(js.updates)), "B",
		fmt.Sprintf("(%d journal bytes over %d updates of the journaled phase)", js.bytes, js.updates))
	r.add("journal.batch_width_mean", ratio(float64(js.nodes), float64(js.records)), "count",
		fmt.Sprintf("(%d nodes in %d grouped records)", js.nodes, js.records))
}

// journalPhase continues the workload for journalLen on a fresh
// deployment whose controller journals write-ahead to a file under out,
// gates its updates like the main phase, and returns the journal's
// counters. It runs in traced runs only: fsync latency on a shared disk
// swings throughput too far for an end-to-end bound, while the bytes and
// record widths written per update do not depend on it.
func journalPhase(ctx context.Context, sc *scenario, seed int64, out string) (journalStats, error) {
	var js journalStats
	d, err := deploy(sc, seed, true, out)
	if err != nil {
		return js, err
	}
	defer d.close() //nolint:errcheck // the journal's counters are already read
	l := &loader{d: d, sc: sc}
	before, err := takeSnapshot(ctx, d)
	if err != nil {
		return js, err
	}
	outs, _ := l.phase(ctx, journalLen, nil)
	after, err := takeSnapshot(ctx, d)
	if err != nil {
		return js, err
	}
	if _, err := gate(d, sc, outs, before, after); err != nil {
		return js, err
	}
	js.updates = done(outs)
	js.bytes = after.health.Journal.SizeBytes - before.health.Journal.SizeBytes
	js.records, js.nodes = after.journalN-before.journalN, after.journalSum-before.journalSum
	return js, nil
}

// repeatFrac is the share of updates whose planning input occurred
// earlier in the run, in start order.
func repeatFrac(all []*outcome) float64 {
	sorted := append([]*outcome(nil), all...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	seen := make(map[string]bool)
	repeats := 0
	for _, o := range sorted {
		k := inputKey(o.req)
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return ratio(float64(repeats), float64(len(sorted)))
}

// perLayer derives the per-layer metrics: timings from the spans of
// the traced windows and the layer pass, counts per update from the
// job statuses and the counter deltas over the whole phase.
func perLayer(r *report, d *deployment, tr *tracer, outs, all []*outcome, costs []*inputCost, windows []window, before, after snapshot, untraced float64) {
	n := float64(done(outs))
	perUpdate := func(v float64) float64 { return ratio(v, n) }
	base := fmt.Sprintf("over %d updates", int(n))

	submit := newTiming(tr.durations("client.SubmitBatch"))
	r.add("api.submit_p50_ms", ms(submit.pct(0.5)), "ms", "(client.SubmitBatch: "+submit.describe(time.Millisecond, "ms")+")")
	r.add("api.submit_p99_ms", ms(submit.pct(0.99)), "ms", "")
	ver := newTiming(tr.durations("client.Verify"))
	r.add("api.verify_p50_ms", ms(ver.pct(0.5)), "ms", "(client.Verify: "+ver.describe(time.Millisecond, "ms")+")")
	wait := newTiming(tr.durations("client.Wait"))
	r.add("api.wait_p50_ms", ms(wait.pct(0.5)), "ms", "(client.Wait: "+wait.describe(time.Millisecond, "ms")+")")

	inputs := fmt.Sprintf("(per-update mean of one call on each of %d distinct inputs)", len(costs))
	r.add("core.schedule_us", perUpdateMean(costs, func(c *inputCost) float64 { return us(c.schedule) }), "us", inputs)
	sparse := perUpdateMean(costs, func(c *inputCost) float64 { return ms(c.sparse) })
	r.add("core.sparse_plan_ms", sparse, "ms", inputs)
	r.add("core.ideals_per_plan", perUpdateMean(costs, func(c *inputCost) float64 { return float64(c.ideals) }), "count", "(order ideals of the executed DAG, per-update mean)")
	r.add("core.repeat_frac", repeatFrac(all), "ratio", fmt.Sprintf("(of all %d updates of the run)", len(all)))
	vplan := perUpdateMean(costs, func(c *inputCost) float64 { return ms(c.plan) })
	r.add("verify.plan_ms", vplan, "ms", "(sparse DAGs, "+inputs[1:])

	// The proof work the server did per update, priced with the layer
	// timings: one core.SparsePlan per request that asked for a sparse
	// plan and one verify.Plan per /v1/verify.
	var sparseCalls, verifyCalls, ctrlMsgs, peerMsgs, nodes int
	var exec, unexec []time.Duration
	var installUs []int64
	waits := make(map[int64]time.Duration)
	for _, b := range tr.bufs {
		for _, s := range b {
			if s.Name == "client.Wait" {
				waits[s.Update] = s.dur()
			}
		}
	}
	for _, o := range outs {
		if o.failed() {
			continue
		}
		if o.req.Plan == "sparse" {
			sparseCalls++
		}
		if o.verify != nil {
			verifyCalls++
			if o.req.Plan == "sparse" {
				sparseCalls++
			}
		}
		ctrlMsgs += o.ctrl
		peerMsgs += o.peer
		nodes += o.nodes
		if !o.traced {
			continue
		}
		total := time.Duration(o.totalUs) * time.Microsecond
		exec = append(exec, total)
		unexec = append(unexec, waits[o.id]-total)
		installUs = append(installUs, o.installUs...)
	}
	traced := statsOf(windows, true)
	proof := perUpdate(float64(sparseCalls))*sparse + perUpdate(float64(verifyCalls))*vplan
	fmt.Printf("  %-34s %12.6g %-6s (%.4g ms of core.SparsePlan and verify.Plan per update over cpu_ms_per_update %.4g)\n",
		"(proof share of CPU)", ratio(proof, traced.cpu), "ratio", proof, traced.cpu)

	ex := newTiming(exec)
	r.add("controller.exec_p50_ms", ms(ex.pct(0.5)), "ms", "(JobStatus.total_us: "+ex.describe(time.Millisecond, "ms")+")")
	r.add("controller.exec_p99_ms", ms(ex.pct(0.99)), "ms", "")
	un := newTiming(unexec)
	r.add("controller.unexec_wait_p50_ms", ms(un.pct(0.5)), "ms", "(client.Wait minus total_us: "+un.describe(time.Millisecond, "ms")+")")
	r.add("controller.install_p50_us", groupedMedian(installUs), "us", fmt.Sprintf("(grouped median of %d whole-µs InstallStatus.us)", len(installUs)))
	r.add("controller.installs_per_update", ratio(float64(len(installUs)), float64(ex.n())), "count", fmt.Sprintf("(%d installs over %d traced updates)", len(installUs), ex.n()))
	dropped := after.health.Dispatch.AcksDropped - before.health.Dispatch.AcksDropped
	r.add("controller.acks_dropped", float64(dropped), "count", "(healthz delta; must be 0)")

	r.add("ofconn.ctrl_msgs_per_update", perUpdate(float64(ctrlMsgs)), "count", fmt.Sprintf("(%d JobStatus.messages.ctrl %s)", ctrlMsgs, base))
	writes := after.health.Dispatch.BatchedWrites - before.health.Dispatch.BatchedWrites
	r.add("ofconn.writes_per_update", perUpdate(float64(writes)), "count", fmt.Sprintf("(%d healthz batched_writes %s)", writes, base))
	msgs := after.batchSum - before.batchSum
	r.add("ofconn.msgs_per_write", ratio(float64(msgs), float64(after.batchN-before.batchN)), "count",
		fmt.Sprintf("(%d messages in %d batched writes)", msgs, after.batchN-before.batchN))

	r.add("switchsim.peer_msgs_per_update", perUpdate(float64(peerMsgs)), "count", fmt.Sprintf("(%d JobStatus.messages.peer %s)", peerMsgs, base))
	mods := after.fleet.flowMods - before.fleet.flowMods
	r.add("switchsim.flowmods_per_install", ratio(float64(mods), float64(nodes)), "ratio", fmt.Sprintf("(%d FlowMods applied for %d planned installs)", mods, nodes))
	barriers := after.fleet.barriers - before.fleet.barriers
	r.add("switchsim.barriers_per_update", perUpdate(float64(barriers)), "count", fmt.Sprintf("(%d barriers %s)", barriers, base))
	r.add("switchsim.table_entries", float64(d.tableEntries()), "count", fmt.Sprintf("(summed over %d switches at the end)", len(d.switches)))

	r.add("process.cpu_util", traced.cpuUtil, "cores",
		fmt.Sprintf("(median traced window, at %.1f updates/s; %d cores)", traced.throughput, runtime.GOMAXPROCS(0)))
	r.add("process.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU), "ratio",
		fmt.Sprintf("(%.3fs GC of %.3fs busy runtime CPU)", after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU))
	r.add("process.allocs_per_update", perUpdate(float64(after.allocs-before.allocs)), "count", fmt.Sprintf("(%d heap objects %s)", after.allocs-before.allocs, base))
	r.add("process.alloc_bytes_per_update", perUpdate(float64(after.allocBytes-before.allocBytes)), "B", fmt.Sprintf("(%d heap bytes %s)", after.allocBytes-before.allocBytes, base))
	r.add("process.goroutines_per_switch", ratio(float64(before.goroutines), float64(len(d.switches))), "count",
		fmt.Sprintf("(%d goroutines with the load idle, %d switches)", before.goroutines, len(d.switches)))
	r.add("trace.overhead_frac", 1-ratio(traced.throughput, untraced), "ratio",
		fmt.Sprintf("(median traced window %.1f vs untraced %.1f updates/s)", traced.throughput, untraced))
}
