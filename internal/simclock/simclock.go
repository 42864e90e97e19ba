// Package simclock provides the virtual time base of the repository: a
// Clock interface over Now/Sleep/After/AfterFunc with two
// implementations — the real wall clock, and Sim, a discrete-event
// scheduler whose time advances only when events fire.
//
// The paper's entire problem is that FlowMods "take effect out of
// order" across asynchronous switches; modelling that asynchrony with
// real time.Sleep makes large scenarios run in wall-clock time and
// leaves the interleaving to the Go scheduler. Under Sim, every delay
// is an event on a queue ordered deterministically by (time, seq): a
// 10k-switch scenario runs as fast as the events can be processed, and
// the same seed pins the same event order, run after run.
//
// Two usage styles, with different determinism guarantees:
//
//   - Event callbacks (Schedule or AfterFunc + Advance/Run): everything
//     happens in the driving goroutine, in exact (time, seq) order. This
//     is fully deterministic and is what internal/explore and the
//     virtual experiment harness use. Callbacks must not block on the clock
//     (no Sleep/After inside a callback — the driver would deadlock).
//
//   - Blocking waiters (Sleep/After from other goroutines): the waiter
//     parks until some other goroutine advances the clock past its
//     deadline. Wake-up *times* are deterministic, but the woken
//     goroutine races the driver like any other goroutine — use this
//     to put live TCP deployments (switch control loops, the engine's
//     inter-round pauses) on virtual time, not to pin interleavings.
//     AutoAdvance drives such a deployment: whenever no event has
//     fired for an idle window of real time, the next pending event is
//     released, so virtual delays cost (almost) no wall-clock time.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts the time base. Real time satisfies it via the Real
// singleton; Sim satisfies it with virtual time.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock (returns
	// immediately for d <= 0).
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc runs fn once d has elapsed on this clock. The returned
	// stop cancels a pending call and reports whether it did; it is
	// false once fn has started. On Sim, fn runs in the goroutine that
	// advances the clock, so it must never block on the clock itself.
	AfterFunc(d time.Duration, fn func()) (stop func() bool)
}

// realClock forwards to package time.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) AfterFunc(d time.Duration, fn func()) func() bool {
	return time.AfterFunc(d, fn).Stop
}

// Real is the wall clock. It is the default everywhere a nil Clock is
// accepted.
var Real Clock = realClock{}

// Or returns c, defaulting to Real when c is nil — the idiom for
// optional Clock config fields.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

// Epoch is the default start time of a Sim clock: a fixed instant, so
// virtual timestamps are reproducible run-to-run.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// event is one queue entry. Ties on `at` break by `seq`, the order the
// events were scheduled in — fully deterministic for single-threaded
// (callback-style) drivers.
type event struct {
	at    time.Time
	seq   uint64
	fn    func()
	index int // position in the queue; -1 once popped or removed
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Sim is a virtual clock with a discrete-event scheduler. Time never
// advances on its own: Advance/AdvanceTo/Run/Step pop due events in
// (time, seq) order, move the clock to each event's timestamp, and run
// its callback. The zero value is not usable; construct with NewSim.
//
// All methods are safe for concurrent use; callbacks run outside the
// internal lock (they may schedule further events).
type Sim struct {
	mu    sync.Mutex
	now   time.Time
	seq   uint64
	fired uint64
	queue eventQueue
	free  []*event // fired events recycled into Schedule/ScheduleAt
}

// maxFreeEvents caps the recycled-event list; beyond it fired events
// are left to the garbage collector.
const maxFreeEvents = 4096

// newEventLocked returns a recycled (or fresh) event initialized with
// the next sequence number. Callers hold s.mu.
func (s *Sim) newEventLocked(at time.Time, fn func()) *event {
	s.seq++
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*ev = event{at: at, seq: s.seq, fn: fn}
		return ev
	}
	return &event{at: at, seq: s.seq, fn: fn}
}

// recycle returns a fired event to the free list, dropping its
// callback reference.
func (s *Sim) recycle(ev *event) {
	s.mu.Lock()
	if len(s.free) < maxFreeEvents {
		ev.fn = nil
		s.free = append(s.free, ev)
	}
	s.mu.Unlock()
}

// NewSim returns a Sim starting at `start` (the zero time selects
// Epoch).
func NewSim(start time.Time) *Sim {
	if start.IsZero() {
		start = Epoch
	}
	return &Sim{now: start}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// ScheduleAt enqueues fn to run when virtual time reaches t. Times in
// the past clamp to now (virtual time is monotonic). Events scheduled
// for the same instant fire in scheduling order.
func (s *Sim) ScheduleAt(t time.Time, fn func()) {
	s.mu.Lock()
	if t.Before(s.now) {
		t = s.now
	}
	heap.Push(&s.queue, s.newEventLocked(t, fn))
	s.mu.Unlock()
}

// Schedule enqueues fn to run d from now (d <= 0 means at the current
// instant, on the next Advance/Run/Step). Fired events are recycled
// into subsequent Schedule calls, so a schedule/fire cycle does not
// allocate in steady state.
func (s *Sim) Schedule(d time.Duration, fn func()) {
	s.mu.Lock()
	s.pushLocked(d, fn)
	s.mu.Unlock()
}

// pushLocked enqueues fn d from now (d <= 0: at the current instant).
// Callers hold s.mu.
func (s *Sim) pushLocked(d time.Duration, fn func()) *event {
	t := s.now
	if d > 0 {
		t = t.Add(d)
	}
	ev := s.newEventLocked(t, fn)
	heap.Push(&s.queue, ev)
	return ev
}

// Sleep blocks the calling goroutine until virtual time has advanced
// by d (some other goroutine must drive the clock). d <= 0 returns
// immediately.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan struct{})
	s.Schedule(d, func() { close(ch) })
	<-ch
}

// After returns a channel delivering the virtual time once d has
// elapsed on the clock. The channel is buffered: the driver never
// blocks on a slow receiver.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.Schedule(d, func() { ch <- s.Now() })
	return ch
}

// AfterFunc schedules fn as an event d from now, like Schedule, and
// returns a stop function that removes the event from the queue if it
// has not fired yet. fn runs in the driving goroutine (see the package
// comment): it must not Sleep or wait on After.
func (s *Sim) AfterFunc(d time.Duration, fn func()) (stop func() bool) {
	s.mu.Lock()
	ev := s.pushLocked(d, fn)
	seq := ev.seq
	s.mu.Unlock()
	return func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		// A fired event is recycled under a new seq; a popped one has
		// index -1. Either way it is no longer this timer's.
		if ev.seq != seq || ev.index < 0 {
			return false
		}
		heap.Remove(&s.queue, ev.index)
		return true
	}
}

// pop removes and returns the earliest event if its time is <= limit,
// advancing now to the event's time.
func (s *Sim) pop(limit time.Time) *event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 || s.queue[0].at.After(limit) {
		return nil
	}
	ev := heap.Pop(&s.queue).(*event)
	if ev.at.After(s.now) {
		s.now = ev.at
	}
	s.fired++
	return ev
}

// AdvanceTo fires every event with timestamp <= t in (time, seq)
// order (including events those events schedule within the window),
// then sets the clock to t. It returns the number of events fired.
// Virtual time never moves backward: t before now is a no-op.
func (s *Sim) AdvanceTo(t time.Time) int {
	n := 0
	for {
		ev := s.pop(t)
		if ev == nil {
			break
		}
		ev.fn()
		s.recycle(ev)
		n++
	}
	s.mu.Lock()
	if t.After(s.now) {
		s.now = t
	}
	s.mu.Unlock()
	return n
}

// Advance moves the clock forward by d, firing due events (see
// AdvanceTo).
func (s *Sim) Advance(d time.Duration) int {
	return s.AdvanceTo(s.Now().Add(d))
}

// Run fires events until the queue is empty, advancing time to each.
// It returns the number of events fired. Recurring events (callbacks
// that reschedule themselves unconditionally) make Run diverge — bound
// them, or use AdvanceTo.
func (s *Sim) Run() int {
	n := 0
	for {
		s.mu.Lock()
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return n
		}
		limit := s.queue[0].at
		s.mu.Unlock()
		n += s.AdvanceTo(limit)
	}
}

// Step fires the earliest pending timestamp — all events scheduled for
// that exact instant — and returns how many fired (0 when idle).
func (s *Sim) Step() int {
	s.mu.Lock()
	if len(s.queue) == 0 {
		s.mu.Unlock()
		return 0
	}
	limit := s.queue[0].at
	s.mu.Unlock()
	n := 0
	for {
		ev := s.pop(limit)
		if ev == nil {
			return n
		}
		ev.fn()
		s.recycle(ev)
		n++
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// NextAt returns the earliest pending event's timestamp.
func (s *Sim) NextAt() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return time.Time{}, false
	}
	return s.queue[0].at, true
}

// Fired returns the total number of events executed so far — the
// reproducible "event count" of a simulation run.
func (s *Sim) Fired() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// AutoAdvance starts a background driver for live deployments on
// virtual time: whenever no event has fired for an idle window of real
// time and events are pending, it releases the next pending timestamp
// (Step). Goroutines blocked in Sleep/After thus wake as soon as the
// system is otherwise quiescent, so virtual delays cost roughly one
// idle window of wall-clock time each instead of their face value.
// idle <= 0 selects 500µs. The returned stop function halts the driver
// (idempotent).
func (s *Sim) AutoAdvance(idle time.Duration) (stop func()) {
	if idle <= 0 {
		idle = 500 * time.Microsecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		last := s.Fired()
		for {
			select {
			case <-done:
				return
			case <-time.After(idle):
			}
			if cur := s.Fired(); cur != last {
				last = cur // progress without us; give it another window
				continue
			}
			s.Step()
			last = s.Fired()
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
