package obs

import "time"

// Observer receives one measured value; *Histogram implements it.
type Observer interface {
	Observe(float64)
}

// Timer measures one duration and reports it, in seconds, to an
// Observer — the per-stage latency helper:
//
//	t := obs.StartTimer(m.ingestSeconds)
//	defer t.Stop()
type Timer struct {
	o     Observer
	start time.Time
}

// StartTimer starts timing against o (nil o makes Stop a pure
// stopwatch).
func StartTimer(o Observer) Timer {
	return Timer{o: o, start: time.Now()}
}

// Stop observes the elapsed time in seconds and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	if t.o != nil {
		t.o.Observe(d.Seconds())
	}
	return d
}
