// Package tsu reproduces "Towards Transiently Secure Updates in
// Asynchronous SDNs" (Shukla, Schütze, Ludwig, Dudycz, Schmid,
// Feldmann — SIGCOMM 2016): a controller that installs routing-policy
// updates in barrier-delimited rounds computed by consistency-
// preserving schedulers (WayUp for waypoint enforcement, Peacock for
// relaxed loop freedom), so that an asynchronous control channel can
// never expose a transiently insecure forwarding state.
//
// Execution is plan-shaped: core.Plan is a dependency DAG of
// per-switch installs whose reachable transient states are the DAG's
// order ideals. Round schedules convert losslessly to layered plans
// (bit-identical to the paper's global-barrier rounds), while
// PlanScheduler-capable algorithms (Peacock, GreedySLF) emit sparse
// DAGs that the controller dispatches ack-driven — each FlowMod
// issued the moment its dependencies' barriers arrive, so a slow
// switch stalls only its own dependents.
//
// Execution is also decentralizable: Plan.Partition slices the DAG
// into per-switch partitions that the controller broadcasts once
// (internal/planwire vendor messages); each switch's plan agent then
// installs nodes as in-edge acks arrive and acks its out-edges
// peer-to-peer over the fabric, so a dependency edge costs a
// sub-millisecond hop instead of two control RTTs. The partial order
// — and therefore the reachable ideal space, the verifier verdicts
// and the explorer fingerprints — is unchanged by who relays the
// acks (core.AssemblePlan, TestDecentralizedBitIdentical).
//
// Execution is also recoverable: netem.Faults injects seeded
// drop/duplicate/reorder faults per message class and switchsim
// crashes switches mid-plan (optionally wiping their tables). On a
// barrier timeout or stall the engine aborts, reverses the
// dispatched prefix (Plan.Reverse — the rollback's transient states
// are forward sub-ideals, so verified plans roll back safe),
// re-verifies the reverse plan, and executes it only on a safe
// verdict; otherwise the job reports itself stuck with the precise
// unmet dependencies. The structured failure report rides the /v1
// job status into the SDK and updatectl.
//
// The library lives under internal/:
//
//   - internal/core      — update model, schedulers (the paper's contribution),
//     and the plan layer: Plan/PlanFromSchedule/SparsePlan, the order-ideal
//     enumeration and checker (Plan.CheckIdeals), PlanRun (allocation-free ack-dispatch bookkeeping), and
//     the canonical plan wire codec; core.Walker is the incremental,
//     allocation-free state-check primitive under the explorer and verifier
//   - internal/synth     — counterexample-guided plan synthesis (CEGIS): grows
//     a minimal-depth sparse DAG edge by edge from explorer/verifier
//     counterexample ideals, with budgets, a refinement transcript, a
//     heuristic portfolio fallback, and the optimality-gap report
//     (synth.Compare) quantifying how far each heuristic is from optimum
//   - internal/verify    — exact transient-state verification (fast safe/unsafe
//     verdicts) over round states and plan ideals (verify.Plan, over
//     core.Plan.CheckIdeals, the one order-ideal checker); the
//     PlanCounterexample entry returns the violating order ideal for the
//     synthesizer's refinement loop
//   - internal/explore   — adversarial interleaving explorer: exhaustive
//     Gray-code enumeration with incremental walks and a transposition
//     table, sampled FlowMod delivery orders, per-event checks, minimized
//     counterexample traces, parallel rounds with deterministic merge,
//     timed virtual-clock replay; explore.Plan ranges over a sparse plan's
//     ideals and linear extensions
//   - internal/simclock  — virtual time base: Clock interface (Now, Sleep,
//     After, AfterFunc), Sim discrete-event scheduler with deterministic
//     (time, seq) ordering and AutoAdvance
//   - internal/topo      — topologies, update families, the Figure 1 scenario
//   - internal/openflow  — OpenFlow 1.0-subset wire protocol
//   - internal/planwire  — vendor-message payloads for decentralized execution
//     (partition push, completion report, recovery state query/report)
//   - internal/ofconn    — framing, handshake, xid management
//   - internal/switchsim — simulated switches, data-plane fabric and the
//     decentralized plan agent (clock-parameterized); fault injection:
//     crash-after-N-FlowMods with optional table wipe, per-class
//     drop/duplicate/reorder; a connected switch keeps one goroutine (its
//     reader) while expiry sweeps and delayed peer acks run on clock
//     timers, and Fabric.Quiesce waits for in-flight peer acks to drain
//   - internal/netem     — control-channel asynchrony models and the seeded
//     probabilistic fault model (netem.Faults) on a pluggable clock
//   - internal/controller— the controller: every job runs one core.Plan
//     with one FlowMod per node (schedules via PlanFromSchedule, joint
//     updates with one install per flow and switch); sharded ack-driven
//     plan dispatch (a fixed pool of event loops, goroutine- and
//     allocation-free per install, batched write-ahead journaling) with
//     per-node barriers (layered plans reproduce the paper's round loop) or
//     decentralized partition broadcast (ModeDecentralized); every barrier
//     reply (installs, rollback, Barrier) resolves through one xid→sink
//     table; the /v1 REST API (/v1/verify and /v1/explore are the dry-run
//     surfaces; jobs report plan shape, per-install release edges,
//     ctrl/peer message counts
//     and the structured failure report of the abort/rollback path);
//     with a journal configured, Engine.Recover replays job state after a
//     crash and adopts or rolls back mid-flight frontiers by reconciling
//     against live switch state
//   - internal/journal   — write-ahead job journal: CRC-framed record log
//     (admit/dispatched/confirmed/terminal), torn-tail-tolerant replay,
//     snapshot compaction — the durability base for crash-restart recovery
//   - internal/trace     — live probe/violation measurement (wall or virtual clock)
//   - internal/experiments — the experiment harness (E1..E10, E12..E15)
//
// See README.md for the package tour, quickstart, and the Performance
// section (incremental-walk design, Gray-code/order-state duality,
// memo-table memory bounds, and how to read the BENCH_*.json
// trajectory emitted by `make bench-json`). The benchmarks in
// bench_test.go regenerate every experiment table.
package tsu
