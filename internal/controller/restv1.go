package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/api"
	"tsu/internal/core"
	"tsu/internal/explore"
	"tsu/internal/metrics"
	"tsu/internal/openflow"
	"tsu/internal/synth"
	"tsu/internal/topo"
	"tsu/internal/verify"
)

// This file implements the versioned /v1 REST surface (see
// internal/api for the wire schema):
//
//	POST /v1/updates          batch flow-update submission (+ dry-run)
//	GET  /v1/updates          job list, ?state= filtering
//	GET  /v1/updates/{id}     job status
//	GET  /v1/updates/{id}/watch  round-by-round progress as SSE
//	POST /v1/verify           schedule + verify without touching switches
//	POST /v1/explore          schedule + adversarial interleaving explorer
//	POST /v1/policies         install a routing policy along a path
//	GET  /v1/healthz          ops probe (switches, queue depth)
//	GET  /v1/switches         connected datapath ids

// handlerError carries the HTTP status and machine-readable code a
// failed request maps to; plan optionally attaches a best-so-far plan
// shape (synthesis budget exceeded).
type handlerError struct {
	status int
	code   int
	msg    string
	plan   *api.PlanShape
}

func (e *handlerError) Error() string { return e.msg }

func errf(status, code int, format string, args ...any) *handlerError {
	return &handlerError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeErr renders any error as the structured envelope; plain errors
// become 500/CodeInternal.
func writeErr(w http.ResponseWriter, err error) {
	if he, ok := err.(*handlerError); ok {
		writeJSON(w, he.status, api.Error{Message: he.msg, Code: he.code, Plan: he.plan})
		return
	}
	writeJSON(w, http.StatusInternalServerError, api.Error{Message: err.Error(), Code: api.CodeInternal})
}

// plannedUpdate is one validated batch entry with its computed
// schedule and execution plan. Algo is "two-phase" (Sched and DAG
// nil) or a registry name; Props is the entry's requested property
// set (0 when unset). DAG is the execution plan: the schedule's
// lossless layered conversion by default, the scheduler's sparse DAG
// when the entry asked for plan "sparse" and the scheduler provides
// one.
type plannedUpdate struct {
	In    *core.Instance
	Match openflow.Match
	Algo  string
	Sched *core.Schedule
	DAG   *core.Plan
	Props core.Property
	Mode  ExecMode
}

// planUpdate validates one FlowUpdate and computes its schedule. All
// request validation the engine used to discover mid-job lives here:
// malformed paths, off-path waypoints, bad matches and unknown
// algorithms are rejected before anything is admitted.
//
// forVerify relaxes the property contract: on the execution path a
// scheduler that cannot guarantee the requested properties is a 400,
// but on the dry-run verify path those properties are exactly what the
// caller wants checked (reporting what a baseline would break is the
// endpoint's purpose).
func planUpdate(u api.FlowUpdate, forVerify bool) (*plannedUpdate, error) {
	ip := net.ParseIP(u.NWDst)
	if ip == nil || ip.To4() == nil {
		return nil, errf(http.StatusBadRequest, api.CodeInvalidMatch, "nw_dst %q is not an IPv4 address", u.NWDst)
	}
	in, err := core.NewInstance(api.ToPath(u.OldPath), api.ToPath(u.NewPath), topo.NodeID(u.Waypoint))
	if err != nil {
		code := api.CodeInvalidPath
		if errors.Is(err, core.ErrWaypoint) {
			code = api.CodeInvalidWaypoint
		}
		return nil, errf(http.StatusBadRequest, code, "invalid update: %v", err)
	}
	props, err := core.ParseProperties(u.Properties)
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeUnknownProperty, "%v", err)
	}
	switch u.Plan {
	case "", "layered", "sparse":
	default:
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest,
			"plan %q unknown (want layered or sparse)", u.Plan)
	}
	mode, ok := ParseExecMode(u.Mode)
	if !ok {
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest,
			"mode %q unknown (want controller or decentralized)", u.Mode)
	}
	p := &plannedUpdate{In: in, Match: openflow.ExactNWDst(ip), Algo: u.Algorithm, Props: props, Mode: mode}
	if u.Algorithm == "two-phase" {
		// Per-packet consistency: every packet rides exactly one
		// policy end to end, which subsumes all four per-flow
		// transient properties — any request is satisfied.
		return p, nil
	}
	if u.Algorithm != "" {
		if _, err := core.Lookup(u.Algorithm); err != nil {
			return nil, errf(http.StatusBadRequest, api.CodeUnknownAlgorithm, "%v", err)
		}
	}
	if u.Algorithm == core.AlgoSynth {
		return planSynthUpdate(p, in, u, props)
	}
	sched, err := core.ScheduleByName(in, u.Algorithm, props)
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed, "scheduling failed: %v", err)
	}
	// On the execution path, requested properties are a contract, not
	// a hint: schedulers with fixed guarantees (peacock, oneshot, ...)
	// ignore the props argument, so reject rather than execute an
	// update that does not preserve what the client demanded.
	if !forVerify && props != 0 && !sched.Guarantees.Has(props) {
		return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed,
			"scheduler %q guarantees %s, which does not cover the requested %s",
			sched.Algorithm, sched.Guarantees, props)
	}
	p.Algo = sched.Algorithm
	p.Sched = sched
	// Execution plan: the lossless layered conversion by default; the
	// sparse DAG on request, derived from the schedule just computed
	// (the PlanScheduler capability gates which algorithms' rounds
	// justify the derivation — never re-running the scheduler, so the
	// reported rounds and the executed DAG come from the same run).
	// Schedulers without a sparse form fall back to layered —
	// PlanShape.Sparse reports what ran.
	p.DAG = core.PlanFromSchedule(sched)
	if u.Plan == "sparse" {
		if sch, err := core.Lookup(p.Algo); err == nil {
			if _, capable := sch.(core.PlanScheduler); capable {
				p.DAG = core.SparsePlan(in, sched)
			}
		}
	}
	return p, nil
}

// planSynthUpdate plans an update through the CEGIS synthesizer,
// honoring the per-request refinement budget: a positive SynthBudget
// runs pure synthesis and surfaces a budget overrun as a structured
// 400/CodeSynthBudget carrying the best-so-far plan shape; zero runs
// the heuristic-backed portfolio with server defaults. The synthesized
// sparse DAG executes directly when the entry asked for plan "sparse";
// the layered view of its layers otherwise.
func planSynthUpdate(p *plannedUpdate, in *core.Instance, u api.FlowUpdate, props core.Property) (*plannedUpdate, error) {
	if u.SynthBudget < 0 {
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "synth_budget %d is negative", u.SynthBudget)
	}
	sprops := synth.DefaultProps(in, props)
	var (
		plan *core.Plan
		err  error
	)
	if u.SynthBudget > 0 {
		plan, _, err = synth.Synthesize(in, sprops, synth.Options{Budget: u.SynthBudget})
	} else {
		plan, _, err = synth.Plan(in, sprops, synth.Options{})
	}
	if err != nil {
		var be *synth.BudgetError
		if errors.As(err, &be) {
			he := errf(http.StatusBadRequest, api.CodeSynthBudget,
				"synthesis budget of %d refinements exceeded after %d counterexamples", be.Budget, be.Transcript.Iters)
			he.plan = planShape(be.Best)
			return nil, he
		}
		return nil, errf(http.StatusBadRequest, api.CodeScheduleFailed, "synthesis failed: %v", err)
	}
	p.Algo = core.AlgoSynth
	p.Sched = &core.Schedule{Rounds: plan.Layers(), Algorithm: core.AlgoSynth, Guarantees: plan.Guarantees}
	// The generic path re-derives a sparse DAG from the schedule; here
	// the synthesized DAG itself is the artifact, so it executes as-is
	// on request instead of being reconstructed.
	p.DAG = core.PlanFromSchedule(p.Sched)
	if u.Plan == "sparse" {
		p.DAG = plan
	}
	return p, nil
}

// planShape converts a plan's DAG shape to the wire form.
func planShape(p *core.Plan) *api.PlanShape {
	if p == nil {
		return nil
	}
	return &api.PlanShape{
		Nodes:        p.NumNodes(),
		Edges:        p.NumEdges(),
		Depth:        p.Depth(),
		Width:        p.Width(),
		CriticalPath: p.CriticalPath(),
		Sparse:       p.Sparse,
	}
}

// planBatch validates a whole batch atomically: the first invalid
// entry rejects the batch and nothing is submitted.
func planBatch(req api.BatchUpdateRequest, forVerify bool) ([]*plannedUpdate, error) {
	if req.Interval < 0 {
		return nil, errf(http.StatusBadRequest, api.CodeInvalidInterval, "interval %d ms is negative", req.Interval)
	}
	if len(req.Updates) == 0 {
		return nil, errf(http.StatusBadRequest, api.CodeEmptyBatch, "batch contains no updates")
	}
	plans := make([]*plannedUpdate, len(req.Updates))
	for i, u := range req.Updates {
		p, err := planUpdate(u, forVerify)
		if err != nil {
			if he, ok := err.(*handlerError); ok {
				wrapped := errf(he.status, he.code, "updates[%d]: %s", i, he.msg)
				wrapped.plan = he.plan
				return nil, wrapped
			}
			return nil, err
		}
		plans[i] = p
	}
	return plans, nil
}

// accepted converts a plan (and its job, nil on dry-run) to the wire
// shape.
func accepted(p *plannedUpdate, job *Job) api.AcceptedUpdate {
	out := api.AcceptedUpdate{Algorithm: p.Algo}
	if job != nil {
		out.ID = job.ID
	}
	if p.Sched != nil {
		out.Rounds = api.FromRounds(p.Sched.Rounds)
		out.Guarantees = p.Sched.Guarantees.String()
		out.Compromise = p.Sched.LoopFreedomCompromised
		out.Plan = planShape(p.DAG)
	} else {
		out.Guarantees = "PerPacketConsistency"
	}
	return out
}

// prepareSpec builds one planned update's execution DAG (no
// admission): two-phase entries through the two-phase builder, every
// scheduled entry by executing p.DAG — the plan the response reports.
func (c *Controller) prepareSpec(p *plannedUpdate, opts SubmitOptions) (jobSpec, error) {
	if p.Sched == nil {
		ep, err := c.engine.buildTwoPhase(p.In, p.Match, TwoPhaseTag, opts.Cleanup)
		if err != nil {
			return jobSpec{}, errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		}
		// Two-phase jobs are not reversible mid-plan — their tagged mods
		// have no reverse plan, matching SubmitTwoPhase.
		return jobSpec{algorithm: "two-phase", plan: ep, interval: opts.Interval, mode: p.Mode}, nil
	}
	ep, err := c.engine.buildFlowPlan(p.In, p.DAG, p.Match, opts.Cleanup)
	if err != nil {
		return jobSpec{}, errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
	}
	// Scheduled updates are reversible mid-plan, as with SubmitPlan.
	return jobSpec{
		algorithm: p.Algo,
		plan:      ep,
		interval:  opts.Interval,
		mode:      p.Mode,
		rollback:  &rollbackSpec{in: p.In, match: p.Match, props: p.Sched.Guarantees},
	}, nil
}

// submitPlanned builds and admits a group of planned updates
// atomically: either every update becomes a job or none does.
func (c *Controller) submitPlanned(plans []*plannedUpdate, opts SubmitOptions) ([]*Job, error) {
	specs := make([]jobSpec, len(plans))
	for i, p := range plans {
		spec, err := c.prepareSpec(p, opts)
		if err != nil {
			if he, ok := err.(*handlerError); ok && len(plans) > 1 {
				return nil, errf(he.status, he.code, "updates[%d]: %s", i, he.msg)
			}
			return nil, err
		}
		specs[i] = spec
	}
	jobs, err := c.engine.enqueueAll(specs)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			return nil, errf(http.StatusServiceUnavailable, api.CodeQueueFull, "%v", err)
		}
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "%v", err)
	}
	return jobs, nil
}

func (c *Controller) handleV1SubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchUpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidJSON, "invalid JSON: %v", err))
		return
	}
	plans, err := planBatch(req, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := api.BatchUpdateResponse{DryRun: req.DryRun, Updates: make([]api.AcceptedUpdate, 0, len(plans))}
	if req.DryRun {
		for _, p := range plans {
			resp.Updates = append(resp.Updates, accepted(p, nil))
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	opts := SubmitOptions{Interval: time.Duration(req.Interval) * time.Millisecond, Cleanup: req.Cleanup}
	jobs, err := c.submitPlanned(plans, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	for i, p := range plans {
		resp.Updates = append(resp.Updates, accepted(p, jobs[i]))
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// v1JobStatus converts a Job to the wire shape.
func v1JobStatus(job *Job) api.JobStatus {
	depth, width, critical, sparse := job.PlanShape()
	st := api.JobStatus{
		ID:          job.ID,
		State:       job.State().String(),
		Algorithm:   job.Algorithm,
		Mode:        job.Mode.String(),
		TotalMicros: job.TotalDuration().Microseconds(),
		Rounds:      []api.RoundStatus{},
		Plan: &api.PlanShape{
			Nodes:        job.NumInstalls(),
			Edges:        job.NumEdges(),
			Depth:        depth,
			Width:        width,
			CriticalPath: critical,
			Sparse:       sparse,
		},
	}
	st.Recovered = job.Recovered
	st.Adopted = job.Adopted
	if err := job.Err(); err != nil {
		st.Error = err.Error()
	}
	if f := job.Failure(); f != nil {
		st.Failure = v1FailureReport(f)
	}
	for _, t := range job.Timings() {
		st.Rounds = append(st.Rounds, v1RoundStatus(t))
	}
	for _, it := range job.Installs() {
		st.Installs = append(st.Installs, v1InstallStatus(it))
	}
	if total, per := job.Messages(); total.Ctrl > 0 || total.Peer > 0 {
		st.Messages = &api.MessageCount{Ctrl: total.Ctrl, Peer: total.Peer}
		switches := make([]topo.NodeID, 0, len(per))
		for n := range per {
			switches = append(switches, n)
		}
		sort.Slice(switches, func(a, b int) bool { return switches[a] < switches[b] })
		for _, n := range switches {
			st.MessagesPerSwitch = append(st.MessagesPerSwitch,
				api.MessageCount{Switch: uint64(n), Ctrl: per[n].Ctrl, Peer: per[n].Peer})
		}
	}
	return st
}

// v1FailureReport converts a job's abort outcome to the wire shape.
func v1FailureReport(f *FailureReport) *api.FailureReport {
	out := &api.FailureReport{
		Phase:            f.Phase,
		TriggeringFault:  f.TriggeringFault,
		Installed:        api.FromPath(topo.Path(f.Installed)),
		RolledBack:       api.FromPath(topo.Path(f.RolledBack)),
		RollbackVerified: f.RollbackVerified,
	}
	for _, s := range f.Stuck {
		out.Stuck = append(out.Stuck, api.StuckNode{
			Switch:    uint64(s.Switch),
			WaitingOn: api.FromPath(topo.Path(s.WaitingOn)),
		})
	}
	return out
}

func v1InstallStatus(it InstallTiming) api.InstallStatus {
	return api.InstallStatus{
		Switch:     uint64(it.Node),
		Layer:      it.Layer,
		ReleasedBy: uint64(it.ReleasedBy),
		FlowMods:   it.FlowMods,
		Cleanup:    it.Cleanup,
		Micros:     it.Duration().Microseconds(),
	}
}

func v1RoundStatus(t RoundTiming) api.RoundStatus {
	sw := make([]uint64, len(t.Switches))
	for i, n := range t.Switches {
		sw[i] = uint64(n)
	}
	return api.RoundStatus{Round: t.Round, Switches: sw, Micros: t.Duration().Microseconds(), Cleanup: t.Cleanup}
}

func (c *Controller) handleV1JobStatus(w http.ResponseWriter, r *http.Request) {
	job, err := c.jobFromPath(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v1JobStatus(job))
}

func (c *Controller) jobFromPath(r *http.Request) (*Job, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, errf(http.StatusBadRequest, api.CodeBadRequest, "bad job id %q", r.PathValue("id"))
	}
	job, ok := c.engine.Job(id)
	if !ok {
		return nil, errf(http.StatusNotFound, api.CodeUnknownJob, "job %d unknown", id)
	}
	return job, nil
}

func (c *Controller) handleV1Jobs(w http.ResponseWriter, r *http.Request) {
	stateFilter := r.URL.Query().Get("state")
	if stateFilter != "" {
		if _, ok := ParseJobState(stateFilter); !ok {
			writeErr(w, errf(http.StatusBadRequest, api.CodeBadRequest,
				"unknown state %q (want queued, running, done or failed)", stateFilter))
			return
		}
	}
	out := []api.JobStatus{}
	for _, j := range c.engine.Jobs() {
		if stateFilter != "" && j.State().String() != stateFilter {
			continue
		}
		out = append(out, v1JobStatus(j))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleV1Watch streams a job's progress as Server-Sent Events:
// already-executed rounds replay first, live rounds follow, and the
// stream always ends with a terminal done/failed event.
func (c *Controller) handleV1Watch(w http.ResponseWriter, r *http.Request) {
	job, err := c.jobFromPath(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errf(http.StatusInternalServerError, api.CodeInternal, "response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	events := job.Subscribe()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			we := api.WatchEvent{Job: job.ID}
			switch {
			case ev.Install != nil:
				we.Type = api.EventInstall
				is := v1InstallStatus(*ev.Install)
				we.Install = &is
			case ev.Round != nil:
				we.Type = api.EventRound
				rs := v1RoundStatus(*ev.Round)
				we.Round = &rs
			case ev.State == JobDone:
				we.Type = api.EventDone
				we.TotalMicros = job.TotalDuration().Microseconds()
			default:
				we.Type = api.EventFailed
				if ev.Err != nil {
					we.Error = ev.Err.Error()
				}
			}
			data, err := json.Marshal(we)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", we.Type, data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleV1Verify plans the batch and verifies every schedule against
// the requested properties — a pure dry run, nothing reaches the
// engine or the switches.
func (c *Controller) handleV1Verify(w http.ResponseWriter, r *http.Request) {
	var req api.VerifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidJSON, "invalid JSON: %v", err))
		return
	}
	plans, err := planBatch(api.BatchUpdateRequest{Updates: req.Updates}, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	reqProps, err := core.ParseProperties(req.Properties)
	if err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeUnknownProperty, "%v", err))
		return
	}
	// Layered entries share one parallel round-verification pool;
	// sparse entries are verified over their full ideal space (order
	// ideals of the DAG) by verify.Plan instead — each update is
	// checked exactly once, under the semantics of the plan it would
	// execute.
	taskProps := make([]core.Property, len(plans))
	taskIdx := make([]int, len(plans)) // plan index -> batch task index, -1 for sparse
	var tasks []verify.Task
	for i, p := range plans {
		if p.Sched == nil {
			writeErr(w, errf(http.StatusBadRequest, api.CodeScheduleFailed,
				"updates[%d]: two-phase has no round schedule to verify", i))
			return
		}
		taskProps[i] = checkProps(p, reqProps)
		taskIdx[i] = -1
		if p.DAG == nil || !p.DAG.Sparse {
			taskIdx[i] = len(tasks)
			tasks = append(tasks, verify.Task{Instance: p.In, Schedule: p.Sched, Props: taskProps[i]})
		}
	}
	vopts := verify.Options{Samples: req.Samples, Seed: req.Seed}
	batched := verify.Batch(tasks, vopts)
	reports := make([]*verify.Report, len(plans))
	for i, p := range plans {
		if taskIdx[i] >= 0 {
			reports[i] = batched[taskIdx[i]]
		} else {
			reports[i] = verify.Plan(p.In, p.DAG, taskProps[i], vopts)
		}
	}
	resp := api.VerifyResponse{OK: true, Results: make([]api.VerifyResult, 0, len(reports))}
	for i, rep := range reports {
		res := api.VerifyResult{
			Algorithm:  plans[i].Algo,
			Rounds:     api.FromRounds(plans[i].Sched.Rounds),
			Guarantees: plans[i].Sched.Guarantees.String(),
			Properties: taskProps[i].String(),
			OK:         rep.OK(),
			Exact:      rep.Exact(),
			Plan:       planShape(plans[i].DAG),
		}
		if !res.OK {
			resp.OK = false
		}
		for _, rr := range rep.Rounds {
			if rr.Violation != nil {
				res.Violation = &api.Violation{
					Round:    rr.Round,
					Property: rr.Violation.Violated.String(),
					Walk:     api.FromPath(rr.Violation.Walk),
					Updated:  api.FromPath(plans[i].In.StateNodes(rr.Violation.Updated)),
				}
				break
			}
		}
		resp.Results = append(resp.Results, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkProps resolves the property set a dry-run endpoint checks for
// one planned update. Precedence: the entry's own properties, then the
// request-level set, then the schedule's guarantees; schedules that
// guarantee nothing (one-shot) are checked against what the consistent
// schedulers provide, so the dry run shows what would break.
func checkProps(p *plannedUpdate, reqProps core.Property) core.Property {
	props := p.Props
	if props == 0 {
		props = reqProps
	}
	if props == 0 {
		props = p.Sched.Guarantees
	}
	if props == 0 {
		props = core.NoBlackhole | core.RelaxedLoopFreedom
		if p.In.Waypoint != 0 {
			props |= core.WaypointEnforcement
		}
	}
	return props
}

// handleV1Explore plans the batch and runs the adversarial
// interleaving explorer against every schedule — like /v1/verify a
// pure dry run, but answering with minimized FlowMod delivery traces
// instead of a bare verdict (see internal/explore for the
// order/state duality that makes the exhaustive mode a proof).
func (c *Controller) handleV1Explore(w http.ResponseWriter, r *http.Request) {
	var req api.ExploreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidJSON, "invalid JSON: %v", err))
		return
	}
	plans, err := planBatch(api.BatchUpdateRequest{Updates: req.Updates}, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	reqProps, err := core.ParseProperties(req.Properties)
	if err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeUnknownProperty, "%v", err))
		return
	}
	for i, p := range plans {
		if p.Sched == nil {
			writeErr(w, errf(http.StatusBadRequest, api.CodeScheduleFailed,
				"updates[%d]: two-phase has no round schedule to explore", i))
			return
		}
	}
	// Fan the per-update explorations over the CPUs (like verify.Batch
	// does for the sibling endpoint); each exploration is independent
	// and deterministic, so results merge back in index order.
	reps := make([]*explore.Report, len(plans))
	errs := make([]error, len(plans))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(plans) {
		workers = len(plans)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plans) {
					return
				}
				p := plans[i]
				// Workers: 1 — this loop already fans out across
				// updates; nesting explore's own round pool would
				// oversubscribe the CPUs.
				eopts := explore.Options{
					Props:         checkProps(p, reqProps),
					MaxExhaustive: req.MaxExhaustive,
					Samples:       req.Samples,
					Seed:          req.Seed,
					Workers:       1,
				}
				if p.DAG != nil && p.DAG.Sparse {
					// Sparse plans: the adversary ranges over the
					// DAG's order ideals, not round states.
					reps[i], errs[i] = explore.Plan(p.In, p.DAG, eopts)
				} else {
					reps[i], errs[i] = explore.Schedule(p.In, p.Sched, eopts)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// The schedule came from the server's own planner; a
			// structural mismatch here is a server bug, not bad input.
			writeErr(w, errf(http.StatusInternalServerError, api.CodeInternal, "updates[%d]: %v", i, err))
			return
		}
	}
	resp := api.ExploreResponse{OK: true, Results: make([]api.ExploreResult, 0, len(plans))}
	for i, p := range plans {
		rep := reps[i]
		res := api.ExploreResult{
			Algorithm:  p.Algo,
			Rounds:     api.FromRounds(p.Sched.Rounds),
			Guarantees: p.Sched.Guarantees.String(),
			Properties: rep.Properties.String(),
			OK:         rep.OK(),
			Exhaustive: rep.Exhaustive(),
			Events:     rep.Events(),
			Plan:       planShape(p.DAG),
		}
		if v := rep.FirstViolation(); v != nil {
			resp.OK = false
			tv := &api.TraceViolation{
				Round:    v.Round,
				Property: v.Violated.String(),
				Trace:    make([]api.TraceEvent, 0, len(v.Trace)),
				Walk:     api.FromPath(v.Walk),
				Updated:  api.FromPath(topo.Path(v.Updated)),
			}
			for _, e := range v.Trace {
				tv.Trace = append(tv.Trace, api.TraceEvent{Round: e.Round, Switch: uint64(e.Switch)})
			}
			res.Violation = tv
		}
		resp.Results = append(resp.Results, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Controller) handleV1Policies(w http.ResponseWriter, r *http.Request) {
	var req api.PolicyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidJSON, "invalid JSON: %v", err))
		return
	}
	ip := net.ParseIP(req.NWDst)
	if ip == nil || ip.To4() == nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidMatch, "nw_dst %q is not an IPv4 address", req.NWDst))
		return
	}
	path := api.ToPath(req.Path)
	if err := path.Validate(); err != nil {
		writeErr(w, errf(http.StatusBadRequest, api.CodeInvalidPath, "invalid path: %v", err))
		return
	}
	if err := c.InstallPath(r.Context(), path, openflow.ExactNWDst(ip), req.Host); err != nil {
		writeErr(w, errf(http.StatusBadGateway, api.CodeSwitchUnavailable, "installing policy: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"result": "ok"})
}

func (c *Controller) handleV1Healthz(w http.ResponseWriter, _ *http.Request) {
	h := api.Healthz{
		Status:       "ok",
		Switches:     len(c.Datapaths()),
		QueueDepth:   c.engine.QueueDepth(),
		Running:      c.engine.RunningCount(),
		Workers:      c.engine.Workers(),
		UptimeMicros: c.Uptime().Microseconds(),
	}
	if jl := c.cfg.Journal; jl != nil {
		h.Journal = &api.JournalStatus{Enabled: true, Path: jl.Path(), SizeBytes: jl.Size()}
	}
	if stats, ok := c.engine.Recovery(); ok {
		h.RecoveredJobs = stats.Recovered()
		h.AdoptedJobs = stats.Adopted
	}
	ds := c.engine.disp.stats()
	h.Dispatch = &api.DispatchHealth{
		Shards:           ds.Shards,
		ReadyDepth:       ds.ReadyDepth,
		InFlight:         ds.InFlight,
		BatchedWrites:    uint64(metrics.DispatchBatchMsgs.Count()),
		BatchMeanMsgs:    metrics.DispatchBatchMsgs.Mean(),
		BatchMaxMsgs:     uint64(metrics.DispatchBatchMsgs.Max()),
		JournalBatchMean: metrics.JournalBatchWidth.Mean(),
		JournalBatchMax:  uint64(metrics.JournalBatchWidth.Max()),
		AcksDropped:      uint64(metrics.DispatchAcksDropped.Value()),
	}
	writeJSON(w, http.StatusOK, h)
}
