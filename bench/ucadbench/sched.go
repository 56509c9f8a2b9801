package main

import (
	"syscall"
	"time"
)

// clock is the scheduler's view of time, so the due-time arithmetic is
// testable without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// wallClock sleeps with nanosleep(2) rather than time.Sleep: an idle Go
// runtime parks in epoll_wait, whose timeout is whole milliseconds, so
// time.Sleep overshoots by up to a millisecond — more than most of the
// latencies measured here. Callers lock their OS thread (perCaller does)
// so the sleeping thread is theirs.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		// EINTR leaves the unslept remainder in ts: go back to sleep.
		if err := syscall.Nanosleep(&ts, &ts); err != syscall.EINTR {
			return
		}
	}
}

// refusalBackoff is how long a caller waits before resending a refused
// unit. Short, because a refusal at 40–50 % load is a fault to count,
// not a regime to sit in.
const refusalBackoff = 500 * time.Microsecond

// schedule is an open-loop arrival schedule: unit j is due at
// t0 + j/rate, whatever happened to the units before it.
type schedule struct {
	t0   time.Time
	rate float64 // units per second
}

func (s schedule) due(j int) time.Time {
	return s.t0.Add(time.Duration(float64(j) / s.rate * float64(time.Second)))
}

// openLoopStats is what one caller's steady phase observed.
type openLoopStats struct {
	// late is the generator's own lateness: for every unit the caller
	// was idle for and slept towards, how long after the due time it
	// actually woke.
	late    *recorder
	refused int // failed attempts (each retried in order)
}

// openLoop sends units 0..n-1 on the schedule. send(j, from) delivers
// unit j and reports false when the system refused it; a refused unit is
// resent, in order, after refusalBackoff, and every refusal is counted.
//
// from is the instant the unit's latency is timed from. It is the due
// time whenever the caller was still busy with an earlier unit when this
// one fell due: a unit that waits behind a stalled predecessor is charged
// that wait, because its clock started when it was due, not when it was
// sent. When the caller was idle and merely overslept, from is the moment
// it woke: that lateness is the generator's (reported in late), and on a
// box whose timers overshoot by 0.1 ms it would otherwise bury every
// in-process latency.
func openLoop(clk clock, sch schedule, n int, send func(j int, from time.Time) bool) openLoopStats {
	st := openLoopStats{late: newRecorder(n)}
	for j := 0; j < n; j++ {
		from := sch.due(j)
		if wait := from.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
			woke := clk.Now()
			st.late.add(woke.Sub(from))
			if woke.After(from) {
				from = woke
			}
		}
		for !send(j, from) {
			st.refused++
			clk.Sleep(refusalBackoff)
		}
	}
	return st
}
