package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on; oversleep is added to every
// sleep, like a timer that fires late.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.oversleep) }

func TestOpenLoopSendsEachUnitWhenDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0.Add(-time.Second)}
	sch := schedule{t0: t0, rate: 100} // every 10ms
	var starts, froms []time.Time
	st := openLoop(clk, sch, 5, func(j int, from time.Time) bool {
		starts, froms = append(starts, clk.Now()), append(froms, from)
		clk.now = clk.now.Add(2 * time.Millisecond) // service time
		return true
	})
	for j := 0; j < 5; j++ {
		due := t0.Add(time.Duration(j) * 10 * time.Millisecond)
		if !starts[j].Equal(due) || !froms[j].Equal(due) {
			t.Errorf("unit %d sent at %v timed from %v, want both %v", j, starts[j], froms[j], due)
		}
	}
	if len(st.late.us) != 5 || orderStat(st.late.sorted(), 1) != 0 || st.refused != 0 {
		t.Errorf("lateness %v refused %d, want five zeros and 0", st.late.us, st.refused)
	}
}

func TestOpenLoopChargesAStallToTheUnitsBehindIt(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	sch := schedule{t0: t0, rate: 100}
	var latency []time.Duration
	st := openLoop(clk, sch, 4, func(j int, from time.Time) bool {
		service := time.Millisecond
		if j == 0 {
			service = 35 * time.Millisecond // stalls past units 1..3's due times
		}
		clk.now = clk.now.Add(service)
		latency = append(latency, clk.Now().Sub(from))
		return true
	})
	// Unit 1 was due at 10ms, sent at 35ms, done at 36ms: 26ms from due —
	// not the 1ms a send-timed clock would report.
	want := []time.Duration{35 * time.Millisecond, 26 * time.Millisecond, 17 * time.Millisecond, 8 * time.Millisecond}
	for j := range want {
		if latency[j] != want[j] {
			t.Errorf("unit %d latency %v, want %v (timed from its due time)", j, latency[j], want[j])
		}
	}
	// The caller never slept (unit 0 was due immediately, the rest were
	// overdue): no generator lateness to report.
	if len(st.late.us) != 0 {
		t.Errorf("lateness samples %v, want none: the waits were the system's", st.late.us)
	}
}

func TestOpenLoopReportsItsOwnOversleepAndTimesFromTheWake(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0.Add(-time.Millisecond), oversleep: 300 * time.Microsecond}
	sch := schedule{t0: t0, rate: 100}
	var froms []time.Time
	st := openLoop(clk, sch, 3, func(j int, from time.Time) bool {
		froms = append(froms, from)
		return true
	})
	for j, from := range froms {
		want := t0.Add(time.Duration(j)*10*time.Millisecond + 300*time.Microsecond)
		if !from.Equal(want) {
			t.Errorf("unit %d timed from %v, want the wake-up %v", j, from, want)
		}
	}
	if len(st.late.us) != 3 || st.late.us[0] != 300 {
		t.Errorf("lateness %v us, want three samples of 300", st.late.us)
	}
}

func TestOpenLoopRetriesARefusedUnitInOrder(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	var order []int
	attempts := 0
	st := openLoop(clk, schedule{t0: t0, rate: 1000}, 3, func(j int, _ time.Time) bool {
		if j == 1 {
			if attempts++; attempts <= 2 {
				return false
			}
		}
		order = append(order, j)
		return true
	})
	if st.refused != 2 || len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("refused %d, delivery order %v; want 2 refusals and 0 1 2", st.refused, order)
	}
}

func TestScheduleDoesNotDrift(t *testing.T) {
	sch := schedule{t0: time.Unix(0, 0), rate: 3} // 1/3 s is not a whole number of ns
	if got := sch.due(3_000_000).Sub(sch.t0); got != 1_000_000*time.Second {
		t.Errorf("unit 3e6 at rate 3/s due after %v, want 1e6 s", got)
	}
}
