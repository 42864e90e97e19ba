package simclock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSimOrderingByTimeThenSeq(t *testing.T) {
	s := NewSim(time.Time{})
	var log []string
	s.Schedule(3*time.Millisecond, func() { log = append(log, "c@3") })
	s.Schedule(time.Millisecond, func() { log = append(log, "a@1") })
	s.Schedule(time.Millisecond, func() { log = append(log, "b@1") }) // same instant: scheduling order
	s.Schedule(2*time.Millisecond, func() { log = append(log, "d@2") })
	if n := s.Run(); n != 4 {
		t.Fatalf("fired %d events, want 4", n)
	}
	want := "[a@1 b@1 d@2 c@3]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("event order %s, want %s", got, want)
	}
	if got := s.Now().Sub(Epoch); got != 3*time.Millisecond {
		t.Fatalf("clock at +%v, want +3ms", got)
	}
}

func TestSimAdvanceToBoundary(t *testing.T) {
	s := NewSim(time.Time{})
	fired := 0
	s.Schedule(time.Millisecond, func() { fired++ })
	s.Schedule(5*time.Millisecond, func() { fired++ })
	if n := s.Advance(2 * time.Millisecond); n != 1 || fired != 1 {
		t.Fatalf("advance(2ms) fired %d (%d), want 1", n, fired)
	}
	if got := s.Now().Sub(Epoch); got != 2*time.Millisecond {
		t.Fatalf("clock at +%v after Advance(2ms)", got)
	}
	// Time is monotonic: advancing into the past is a no-op.
	if n := s.AdvanceTo(Epoch); n != 0 {
		t.Fatalf("AdvanceTo(past) fired %d events", n)
	}
	if got := s.Now().Sub(Epoch); got != 2*time.Millisecond {
		t.Fatalf("clock moved backward to +%v", got)
	}
	if n := s.Run(); n != 1 || fired != 2 {
		t.Fatalf("Run fired %d (%d), want 1", n, fired)
	}
}

func TestSimCallbacksCanReschedule(t *testing.T) {
	s := NewSim(time.Time{})
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, s.Now().Sub(Epoch))
		if len(ticks) < 5 {
			s.Schedule(time.Millisecond, tick)
		}
	}
	s.Schedule(time.Millisecond, tick)
	s.Run()
	if len(ticks) != 5 || ticks[4] != 5*time.Millisecond {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestSimSleepWakesOnAdvance(t *testing.T) {
	s := NewSim(time.Time{})
	var wg sync.WaitGroup
	var woke time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Sleep(10 * time.Millisecond)
		woke = s.Now()
	}()
	// Wait until the sleeper has registered its event.
	for s.Pending() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	s.Advance(10 * time.Millisecond)
	wg.Wait()
	if got := woke.Sub(Epoch); got != 10*time.Millisecond {
		t.Fatalf("sleeper woke at +%v, want +10ms", got)
	}
}

func TestSimAfterDeliversVirtualTime(t *testing.T) {
	s := NewSim(time.Time{})
	ch := s.After(7 * time.Millisecond)
	s.Advance(7 * time.Millisecond)
	select {
	case at := <-ch:
		if got := at.Sub(Epoch); got != 7*time.Millisecond {
			t.Fatalf("After delivered +%v, want +7ms", got)
		}
	default:
		t.Fatal("After channel empty after Advance past deadline")
	}
}

func TestSimAfterFuncStop(t *testing.T) {
	s := NewSim(time.Time{})
	var log []string
	s.AfterFunc(time.Millisecond, func() { log = append(log, "a@1") })
	stopB := s.AfterFunc(2*time.Millisecond, func() { log = append(log, "b@2") })
	stopC := s.AfterFunc(3*time.Millisecond, func() { log = append(log, "c@3") })
	if !stopB() {
		t.Fatal("stop of a pending timer reported false")
	}
	if stopB() {
		t.Fatal("second stop reported true")
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d after stop, want 2 (stopped timer must leave the queue)", s.Pending())
	}
	if n := s.Run(); n != 2 {
		t.Fatalf("fired %d events, want 2", n)
	}
	if got := fmt.Sprint(log); got != "[a@1 c@3]" {
		t.Fatalf("event order %s, want [a@1 c@3]", got)
	}
	// Fired (and recycled into a new event): stop must not touch the
	// event's next owner.
	s.Schedule(time.Millisecond, func() { log = append(log, "d@4") })
	if stopC() {
		t.Fatal("stop after fire reported true")
	}
	if s.Run(); fmt.Sprint(log) != "[a@1 c@3 d@4]" {
		t.Fatalf("stale stop removed a recycled event: %v", log)
	}
}

func TestRealAfterFuncStop(t *testing.T) {
	fired := make(chan struct{})
	Real.AfterFunc(time.Millisecond, func() { close(fired) })
	stop := Real.AfterFunc(time.Hour, func() { t.Error("stopped timer fired") })
	if !stop() {
		t.Fatal("stop of a pending wall-clock timer reported false")
	}
	<-fired
}

func TestSimAutoAdvanceDrivesSleepers(t *testing.T) {
	s := NewSim(time.Time{})
	stop := s.AutoAdvance(100 * time.Microsecond)
	defer stop()
	start := time.Now()
	s.Sleep(30 * time.Second) // virtual; must not take 30s of wall time
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("virtual 30s sleep took %v wall-clock", elapsed)
	}
	if got := s.Now().Sub(Epoch); got != 30*time.Second {
		t.Fatalf("clock at +%v, want +30s", got)
	}
}

func TestSimFiredCountsEvents(t *testing.T) {
	s := NewSim(time.Time{})
	for i := 0; i < 17; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", s.Fired())
	}
}

func TestOrDefaultsToReal(t *testing.T) {
	if Or(nil) != Real {
		t.Fatal("Or(nil) != Real")
	}
	s := NewSim(time.Time{})
	if Or(s) != Clock(s) {
		t.Fatal("Or(s) != s")
	}
}
