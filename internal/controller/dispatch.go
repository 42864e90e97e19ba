package controller

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/metrics"
	"tsu/internal/ofconn"
	"tsu/internal/openflow"
	"tsu/internal/topo"
)

// This file is the engine's sharded dispatch path. The ack-driven
// dispatcher used to spawn one goroutine per plan node — send the
// FlowMods, send a barrier, park on the reply — which capped the
// engine far below the 100k-switch tier: every install cost a
// goroutine, a timer, and one write syscall per message. The sharded
// path removes all three:
//
//   - A fixed pool of dispatch shards (default GOMAXPROCS), each
//     owning a stable subset of switch connections (dpid % shards).
//     A shard drains its request channel, groups the ready installs
//     by connection, and writes each connection's FlowMods+barriers
//     as ONE coalesced buffered write (ofconn.Batch).
//   - Barrier replies are routed by the connection's read loop
//     straight into the owning job's ack channel as plain values
//     (datapath.sinks) — no goroutine ever waits per barrier.
//   - Per-job dispatch state (ack channel, rings, node-state bytes)
//     recycles through a pool, and barrier timeouts are synthesized
//     by the job's event loop from a FIFO deadline ring with a single
//     re-armed clock timer.
//
// Steady state the path runs zero goroutines and zero allocations per
// install (pinned by TestDispatchPathAllocs).

// fenceIdx marks a shardReq as a fence: the shard bounces it back
// through the job's ack channel after its current flush cycle. A
// failing job fences every shard before aborting — shards process
// requests in order, so once each fence returns, no FlowMod of the
// job can reach a wire anymore and the dispatched set is exact.
const fenceIdx = -1

// shardReq hands one ready install (or a fence) to the dispatch shard
// owning its switch connection. Plain values only: enqueueing never
// allocates.
type shardReq struct {
	job *Job
	st  *jobDispatch
	idx int
}

// barrierSink routes one in-flight install's BarrierReply from the
// connection read loop into the owning job's ack channel, as a value.
// Registered under datapath.mu keyed by the barrier xid, removed on
// delivery (or deregistered when the coalesced write fails).
type barrierSink struct {
	acks    chan<- nodeAck
	job     int
	idx     int32
	started time.Time
}

// Node dispatch states, tracked per plan node by the job event loop.
// Acks are accepted only for nsInflight nodes, which dedupes the
// (rare) double ack: a write error racing a partial-write reply, or a
// reply racing a synthesized timeout.
const (
	nsIdle     byte = iota
	nsQueued        // journaled write-ahead, waiting for its send slot
	nsInflight      // handed to a shard; barrier reply or deadline pending
	nsDone          // ack consumed (confirmed, failed, or abandoned)
)

// dispatcher is the engine's shard pool plus the job-state recycler.
type dispatcher struct {
	e        *Engine
	shards   []*dispatchShard
	inflight []metrics.Gauge // per-shard in-flight installs
	pool     sync.Pool       // *jobDispatch
}

func newDispatcher(e *Engine, nshards int) *dispatcher {
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	d := &dispatcher{e: e, inflight: make([]metrics.Gauge, nshards)}
	for i := 0; i < nshards; i++ {
		d.shards = append(d.shards, &dispatchShard{
			d:     d,
			id:    i,
			reqs:  make(chan shardReq, 1024),
			conns: make(map[uint64]*connBatch),
		})
	}
	d.pool.New = func() any { return &jobDispatch{} }
	return d
}

// start launches the shard loops; they exit with ctx.
func (d *dispatcher) start(ctx context.Context) {
	for _, s := range d.shards {
		go s.run(ctx)
	}
}

// shardFor maps a switch connection to its owning shard — stable for
// the controller's lifetime, so a connection's writes are never
// contended across shards.
func (d *dispatcher) shardFor(dpid uint64) int { return int(dpid % uint64(len(d.shards))) }

// DispatchStats is a live snapshot of the dispatch path for
// /v1/healthz.
type DispatchStats struct {
	Shards     int
	ReadyDepth int64
	InFlight   []int64
}

func (d *dispatcher) stats() DispatchStats {
	s := DispatchStats{
		Shards:     len(d.shards),
		ReadyDepth: metrics.DispatchReadyDepth.Value(),
		InFlight:   make([]int64, len(d.shards)),
	}
	for i := range d.inflight {
		s.InFlight[i] = d.inflight[i].Value()
	}
	return s
}

// acquire returns a recycled (or fresh) per-job dispatch state sized
// for an n-node plan. The ack channel is sized so every live source —
// at most two acks per in-flight node plus one fence per shard — fits
// without blocking; leftover stale acks from a previous owner are
// drained here and ignored by the new owner's job-ID filter.
func (d *dispatcher) acquire(n int) *jobDispatch {
	st := d.pool.Get().(*jobDispatch)
	if need := 2*n + len(d.shards) + 16; cap(st.acks) < need {
		st.acks = make(chan nodeAck, need)
	}
drain:
	for {
		select {
		case <-st.acks:
		default:
			break drain
		}
	}
	st.cancelled.Store(false)
	st.abandoned = false
	st.dispatched = resize(st.dispatched, n)
	st.confirmed = resize(st.confirmed, n)
	st.status = resize(st.status, n)
	st.releasedBy = resize(st.releasedBy, n)
	st.wave = st.wave[:0]
	st.ready.reset()
	st.sendNow.reset()
	st.sendq.reset()
	st.deads.reset()
	st.nDone = 0
	st.fences = 0
	st.failing = nil
	return st
}

// release recycles a job's dispatch state unless the job abandoned it
// mid-flight (engine shutdown with acks still pending).
func (d *dispatcher) release(st *jobDispatch) {
	if st.abandoned {
		return
	}
	d.pool.Put(st)
}

// deliver is called from a connection read loop when a BarrierReply
// resolves a registered sink: the ack goes to the owning job as a
// value. Non-blocking — the ack channel is sized for every live
// source, so a full channel means the job is gone (stale reply) or
// wedged; either way a drop is safe (a live node would later fail on
// its deadline) and counted.
func (d *dispatcher) deliver(s barrierSink, now time.Time) {
	select {
	case s.acks <- nodeAck{job: s.job, idx: int(s.idx), sent: true, started: s.started, finished: now}:
	default:
		metrics.DispatchAcksDropped.Inc()
	}
}

// nack reports a failed (or skipped) install back to its job. sent
// follows the same rule as the old per-node goroutine: true unless
// provably nothing hit the wire for this node.
func (d *dispatcher) nack(r shardReq, sent bool, err error) {
	select {
	case r.st.acks <- nodeAck{job: r.job.ID, idx: r.idx, sent: sent, err: err}:
	default:
		metrics.DispatchAcksDropped.Inc()
	}
}

// jobDispatch is one job's pooled dispatch state, owned by the job's
// event loop (runDAG) except where noted.
type jobDispatch struct {
	acks      chan nodeAck
	cancelled atomic.Bool // set on failure; shards skip queued requests
	abandoned bool        // do not recycle (acks may still arrive)

	dispatched []bool // FlowMods possibly reached the switch
	confirmed  []bool // barrier reply received
	status     []byte // ns* per node
	releasedBy []topo.NodeID

	wave    []int     // current release wave (one grouped journal append)
	ready   intRing   // release-traversal scratch (see collectWave)
	sendNow intRing   // journaled, sendable immediately
	sendq   timedRing // journaled, paused until its interval due time
	deads   timedRing // in-flight barrier deadlines, FIFO

	nDone   int   // nodes that reached nsDone
	fences  int   // fences still out after a failure
	failing error // first failure; non-nil cancels dispatch
}

// dispatchShard owns a stable subset of switch connections and turns
// ready installs into coalesced writes.
type dispatchShard struct {
	d       *dispatcher
	id      int
	reqs    chan shardReq
	barrier openflow.BarrierRequest // re-stamped per install; encoded at Add time

	// Flush-cycle scratch, reused across cycles:
	order  []uint64 // dpids in first-seen order
	conns  map[uint64]*connBatch
	freeCB []*connBatch
	fences []shardReq
}

// connBatch groups one flush cycle's installs on one connection.
type connBatch struct {
	dp    *datapath
	batch ofconn.Batch
	reqs  []shardReq
	xids  []uint32
}

func (s *dispatchShard) run(ctx context.Context) {
	pprof.Do(ctx, pprof.Labels("tsu_dispatch_shard", strconv.Itoa(s.id)), s.loop)
}

// loop drains the request channel: block for the first request, then
// gather everything already queued, then flush — so installs released
// together coalesce into the same connection writes.
func (s *dispatchShard) loop(ctx context.Context) {
	for {
		var r shardReq
		select {
		case r = <-s.reqs:
		case <-ctx.Done():
			return
		}
		s.gather(r)
	drain:
		for {
			select {
			case r = <-s.reqs:
				s.gather(r)
			default:
				break drain
			}
		}
		s.flush(ctx)
	}
}

// gather files one request into its connection's batch.
func (s *dispatchShard) gather(r shardReq) {
	if r.idx < 0 {
		s.fences = append(s.fences, r)
		return
	}
	if r.st.cancelled.Load() {
		// The job failed after queueing this install: skip it without
		// touching a wire. sent=false — it cannot have taken effect.
		s.d.nack(r, false, context.Canceled)
		return
	}
	nd := &r.job.plan.nodes[r.idx]
	dpid := uint64(nd.node)
	cb := s.conns[dpid]
	if cb == nil {
		dp, err := s.d.e.c.datapath(dpid)
		if err != nil {
			s.d.nack(r, true, fmt.Errorf("install at %d (layer %d): sending flowmod: %w", nd.node, nd.layer, err))
			return
		}
		if n := len(s.freeCB); n > 0 {
			cb = s.freeCB[n-1]
			s.freeCB = s.freeCB[:n-1]
		} else {
			cb = &connBatch{}
		}
		cb.dp = dp
		cb.reqs = cb.reqs[:0]
		s.conns[dpid] = cb
		s.order = append(s.order, dpid)
	}
	cb.reqs = append(cb.reqs, r)
}

// flush writes every gathered connection batch, then bounces fences.
func (s *dispatchShard) flush(ctx context.Context) {
	now := s.d.e.c.clock.Now()
	for _, dpid := range s.order {
		cb := s.conns[dpid]
		delete(s.conns, dpid)
		s.flushConn(cb, now)
		cb.dp = nil
		s.freeCB = append(s.freeCB, cb)
	}
	s.order = s.order[:0]
	for _, f := range s.fences {
		select {
		case f.st.acks <- nodeAck{job: f.job.ID, idx: fenceIdx}:
		case <-ctx.Done():
		}
	}
	s.fences = s.fences[:0]
}

// flushConn encodes each install's FlowMod plus its barrier into the
// connection's batch — registering the barrier sink BEFORE the write,
// so a fast reply always finds it — and issues one coalesced write.
// On write error every sink of the batch is deregistered and every
// install nacked sent=true: a partial write may have reached the
// switch, and over-covering the rollback prefix is safe.
func (s *dispatchShard) flushConn(cb *connBatch, now time.Time) {
	dp := cb.dp
	cb.batch.Reset()
	cb.xids = cb.xids[:0]
	k := 0
	for _, r := range cb.reqs {
		nd := &r.job.plan.nodes[r.idx]
		mark := cb.batch.Mark()
		if err := s.encodeInstall(cb, dp, nd); err != nil {
			cb.batch.Truncate(mark)
			s.d.nack(r, false, fmt.Errorf("install at %d (layer %d): sending flowmod: %w", nd.node, nd.layer, err))
			continue
		}
		xid := dp.conn.NextXid()
		s.barrier.SetXid(xid)
		if err := cb.batch.Add(&s.barrier); err != nil {
			cb.batch.Truncate(mark)
			s.d.nack(r, false, fmt.Errorf("install at %d (layer %d): barrier: %w", nd.node, nd.layer, err))
			continue
		}
		dp.mu.Lock()
		dp.sinks[xid] = barrierSink{
			acks:    r.st.acks,
			job:     r.job.ID,
			idx:     int32(r.idx),
			started: now,
		}
		dp.mu.Unlock()
		cb.reqs[k] = r
		cb.xids = append(cb.xids, xid)
		k++
	}
	cb.reqs = cb.reqs[:k]
	if k == 0 {
		return
	}
	metrics.DispatchBatchMsgs.Observe(int64(cb.batch.Len()))
	if err := dp.conn.WriteBatch(&cb.batch); err != nil {
		dp.mu.Lock()
		for _, xid := range cb.xids {
			delete(dp.sinks, xid)
		}
		dp.mu.Unlock()
		for _, r := range cb.reqs {
			nd := &r.job.plan.nodes[r.idx]
			s.d.nack(r, true, fmt.Errorf("install at %d (layer %d): sending flowmod: %w", nd.node, nd.layer, err))
		}
	}
}

// encodeInstall appends one node's FlowMod to the batch.
func (s *dispatchShard) encodeInstall(cb *connBatch, dp *datapath, nd *execNode) error {
	nd.fm.SetXid(dp.conn.NextXid())
	return cb.batch.Add(nd.fm)
}

// resize returns a zeroed slice of length n, reusing b's array.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// intRing is a growable FIFO of node indices, pooled with its job
// state: steady-state pushes and pops do not allocate.
type intRing struct {
	buf  []int32
	head int
	n    int
}

func (r *intRing) reset()   { r.head, r.n = 0, 0 }
func (r *intRing) len() int { return r.n }

func (r *intRing) push(v int32) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *intRing) pop() int32 {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

func (r *intRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 64
	}
	buf := make([]int32, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = buf, 0
}

// timedRing is a growable FIFO of (node, instant) pairs — the send
// queue (due instants) and the barrier deadline queue. Both queues are
// pushed in nondecreasing instant order, so the head is always the
// earliest.
type timedRing struct {
	idx  []int32
	at   []time.Time
	head int
	n    int
}

func (r *timedRing) reset()   { r.head, r.n = 0, 0 }
func (r *timedRing) len() int { return r.n }

func (r *timedRing) push(v int32, t time.Time) {
	if r.n == len(r.idx) {
		r.grow()
	}
	p := (r.head + r.n) % len(r.idx)
	r.idx[p], r.at[p] = v, t
	r.n++
}

func (r *timedRing) peek() (int32, time.Time) {
	return r.idx[r.head], r.at[r.head]
}

func (r *timedRing) pop() (int32, time.Time) {
	v, t := r.idx[r.head], r.at[r.head]
	r.head = (r.head + 1) % len(r.idx)
	r.n--
	return v, t
}

func (r *timedRing) grow() {
	size := 2 * len(r.idx)
	if size == 0 {
		size = 64
	}
	idx := make([]int32, size)
	at := make([]time.Time, size)
	for i := 0; i < r.n; i++ {
		p := (r.head + i) % len(r.idx)
		idx[i], at[i] = r.idx[p], r.at[p]
	}
	r.idx, r.at, r.head = idx, at, 0
}
