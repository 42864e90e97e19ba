package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tsu/internal/api"
)

// outcome is one update as the client saw it, reduced to what the
// gate and the metrics read, so the benchmark's own heap stays small
// next to the program's.
type outcome struct {
	id         int64
	flow       int
	req        api.FlowUpdate
	start, end time.Time
	traced     bool
	verify     *api.VerifyResult   // nil unless the workload verifies first
	accepted   *api.AcceptedUpdate // the server's plan for the update
	err        error               // a failed or refused request

	// From the terminal status client.Wait returned.
	state, msg        string
	totalUs           int64
	installUs         []int64
	ctrl, peer, nodes int
}

// failed reports whether the update counts against failed_frac: a
// failed or refused request, a verify verdict that is not ok, or a job
// that did not end done.
func (o *outcome) failed() bool {
	return o.err != nil || (o.verify != nil && !o.verify.OK) || o.state != "done"
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }

// window is one second of a load phase: the updates that reached done
// in it and the process CPU it used. Reporting the median window keeps
// a burst of interference on a shared host from moving the figure.
type window struct {
	dur    time.Duration
	done   int
	cpu    time.Duration
	traced bool
}

const windowLen = time.Second

// loader drives the closed loop: each client sends its next update only
// after the previous one reached a terminal status.
type loader struct {
	d       *deployment
	sc      *scenario
	nextID  atomic.Int64
	done    atomic.Int64  // updates that reached done, ever
	window  atomic.Int64  // index of the current window
	stopped [clients]bool // a client stops for good after a failure

	rssAt int64   // read the peak RSS when done reaches this count
	rss   float64 // the peak RSS then, in MB; 0 until read
}

// phase runs every client for dur and returns the outcomes and the
// phase's whole windows. With a tracer, odd windows are traced and
// even ones are not, so tracing overhead is measured on interleaved
// windows rather than against an earlier, less loaded phase. Updates in
// flight at the deadline complete, so the phase lasts until the last
// one ends.
func (l *loader) phase(ctx context.Context, dur time.Duration, tr *tracer) ([]*outcome, []window) {
	start := time.Now()
	deadline := start.Add(dur)
	l.window.Store(0)
	var wg sync.WaitGroup
	var outs [clients][]*outcome
	for c := 0; c < clients; c++ {
		if l.stopped[c] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				var t *tracer
				if l.window.Load()%2 == 1 {
					t = tr
				}
				o := l.one(ctx, c, t)
				outs[c] = append(outs[c], o)
				if o.failed() {
					// The flow's installed path is now unknown; the
					// correctness gate reports the failure.
					l.stopped[c] = true
					return
				}
				if l.done.Add(1) == l.rssAt {
					l.rss = maxRSS()
				}
			}
		}()
	}
	var windows []window
	prevAt, prevCPU, prevDone := start, processCPU(), l.done.Load()
	for i := 1; time.Duration(i)*windowLen <= dur; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * windowLen)))
		at, cpu, n := time.Now(), processCPU(), l.done.Load()
		windows = append(windows, window{dur: at.Sub(prevAt), done: int(n - prevDone), cpu: cpu - prevCPU, traced: tr != nil && (i-1)%2 == 1})
		prevAt, prevCPU, prevDone = at, cpu, n
		l.window.Store(int64(i))
	}
	wg.Wait()
	var all []*outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all, windows
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// one sends one update: /v1/verify first when the workload asks for
// it, then /v1/updates, then waits for the terminal status.
func (l *loader) one(ctx context.Context, c int, tr *tracer) *outcome {
	u := l.sc.gens[c].next()
	o := &outcome{id: l.nextID.Add(1), flow: u.flow, req: u.req, traced: tr != nil}
	cl := l.d.client
	batch := []api.FlowUpdate{u.req}
	o.start = time.Now()
	root := tr.begin(c, "update", 0, o.id)
	defer func() {
		o.end = time.Now()
		tr.end(c, root)
	}()
	if l.sc.verify {
		sp := tr.begin(c, "client.Verify", root, o.id)
		vr, err := cl.Verify(ctx, api.VerifyRequest{Updates: batch})
		tr.end(c, sp)
		if err == nil && len(vr.Results) != 1 {
			err = fmt.Errorf("verify answered %d results for 1 update", len(vr.Results))
		}
		if err != nil {
			o.err = fmt.Errorf("verify: %w", err)
			return o
		}
		o.verify = &vr.Results[0]
	}
	sp := tr.begin(c, "client.SubmitBatch", root, o.id)
	resp, err := cl.SubmitBatch(ctx, api.BatchUpdateRequest{Updates: batch})
	tr.end(c, sp)
	if err == nil && len(resp.Updates) != 1 {
		err = fmt.Errorf("submit accepted %d updates for 1", len(resp.Updates))
	}
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.accepted = &resp.Updates[0]
	sp = tr.begin(c, "client.Wait", root, o.id)
	st, err := cl.Wait(ctx, o.accepted.ID)
	tr.end(c, sp)
	if err != nil {
		o.err = fmt.Errorf("wait for job %d: %w", o.accepted.ID, err)
		return o
	}
	o.state, o.msg, o.totalUs = st.State, st.Error, st.TotalMicros
	if tr != nil {
		for _, it := range st.Installs {
			o.installUs = append(o.installUs, it.Micros)
		}
	}
	if st.Messages != nil {
		o.ctrl, o.peer = st.Messages.Ctrl, st.Messages.Peer
	}
	if st.Plan != nil {
		o.nodes = st.Plan.Nodes
	}
	return o
}
