package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/ucad/ucad/internal/serve"
)

// phaseOut is what one phase of a run observed from outside the system.
type phaseOut struct {
	events  int           // events acknowledged
	refused int           // events in refused attempts (each was resent)
	wall    time.Duration // first due/send to verdict-complete
	cpu     time.Duration // process user+sys over the same interval
	ack     *recorder     // due -> acknowledged, µs (steady only)
	late    *recorder     // due -> send started, µs (steady only)
	mem     memDelta      // allocation and GC deltas over the phase
	err     error
}

type memDelta struct {
	mallocs, bytes uint64
	gcPause        time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // getrusage(RUSAGE_SELF) cannot fail on Linux; 0 would show as a zero metric
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs body and fills the phase's wall, CPU and memory deltas.
func measure(out *phaseOut, body func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	body()
	out.wall, out.cpu = time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	out.mem = memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// run holds the state of one benchmark run that the phases share.
type run struct {
	cfg    runConfig
	sp     spec
	z      sizes
	in     []*callerInput
	sut    *sut
	base   time.Time // origin of every due/ack timestamp
	clk    clock
	depth  depthSampler
	tracer *tracer
}

// perCaller runs fn once per caller concurrently and returns the first
// error.
func perCaller(fn func(c int) error) error {
	errs := make([]error, nCallers)
	var wg sync.WaitGroup
	for c := 0; c < nCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// steady is the open-loop phase: every caller sends its units on a fixed
// schedule, latency is timed from the due time, and the phase ends when
// the last verdict is in.
func (r *run) steady() phaseOut {
	perUnits := len(r.in[0].steady)
	out := phaseOut{events: perUnits * r.sp.unitEvents * nCallers}
	acks := make([]*recorder, nCallers)
	lates := make([]openLoopStats, nCallers)
	measure(&out, func() {
		// Callers start half an interval apart so their units interleave
		// instead of colliding on every tick.
		rate := r.sp.steadyRate / float64(r.sp.unitEvents) / nCallers
		t0 := r.clk.Now().Add(20 * time.Millisecond)
		out.err = perCaller(func(c int) error {
			// The caller sleeps in nanosleep (see wallClock): keep it on
			// its own thread, like the separate client process it stands for.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			sch := schedule{t0: t0.Add(time.Duration(float64(c) / nCallers / rate * float64(time.Second))), rate: rate}
			var err error
			acks[c], lates[c], err = r.steadyCaller(c, sch)
			return err
		})
		if out.err == nil {
			out.err = r.settle(perUnits * r.sp.unitEvents)
		}
	})
	out.ack, out.late = newRecorder(0), newRecorder(0)
	for c := range acks {
		if acks[c] != nil {
			out.ack.us = append(out.ack.us, acks[c].us...)
			out.late.us = append(out.late.us, lates[c].late.us...)
			out.refused += lates[c].refused * r.sp.unitEvents
		}
	}
	if r.sp.front == frontFeed && out.err == nil {
		out.ack = r.feedAcks()
	}
	return out
}

// settle waits until everything sent so far has a verdict. For the feed
// front that first means every line delivered and checkpointed; perFeeder
// is the cumulative line count each feeder must have shipped.
func (r *run) settle(perFeeder int) error {
	if r.sp.front == frontFeed {
		if err := awaitFeeders(r.sut.feeders, perFeeder); err != nil {
			return err
		}
	}
	r.sut.drain()
	return nil
}

func (r *run) steadyCaller(c int, sch schedule) (*recorder, openLoopStats, error) {
	in := r.in[c]
	ack := newRecorder(len(in.steady) * r.sp.unitEvents)
	var hard error
	// stampDue records the instant a unit's latencies are timed from (its
	// due time, or the caller's wake-up when it overslept: see openLoop).
	stampDue := func(u unit, due time.Time) {
		d := int64(due.Sub(r.base))
		for i := u.lo; i < u.hi; i++ {
			in.due[i] = d
		}
	}
	var send func(j int, due time.Time) bool
	switch r.sp.front {
	case frontInproc:
		next, cur := 0, -1 // resume point inside a partly refused unit
		send = func(j int, due time.Time) bool {
			u := in.steady[j]
			if cur != j {
				cur, next = j, u.lo
				stampDue(u, due)
			}
			for ; next < u.hi; next++ {
				if r.cfg.inject == "drop" && c == 0 && next == injectAt {
					continue
				}
				err := r.sut.reg.Ingest(in.event(next))
				if errors.Is(err, serve.ErrBusy) {
					return false
				}
				if err != nil {
					hard = err
					return true
				}
				if r.cfg.inject == "dup" && c == 0 && next == injectAt {
					hard = r.sut.reg.Ingest(in.event(next))
				}
				ack.add(r.clk.Now().Sub(due))
			}
			return true
		}
	case frontHTTP:
		var retry []byte // the refused remainder of the current unit
		send = func(j int, due time.Time) bool {
			body := in.bodies[j]
			if retry != nil {
				body = retry
			} else {
				stampDue(in.steady[j], due)
			}
			rest, err := r.sut.post(body)
			if err != nil {
				hard = err
				return true
			}
			if retry = rest; rest != nil {
				return false
			}
			ack.add(r.clk.Now().Sub(due))
			return true
		}
	case frontFeed:
		f := r.sut.feeders[c].file
		send = func(j int, due time.Time) bool {
			stampDue(in.steady[j], due)
			if _, err := f.Write(in.lines[j]); err != nil {
				hard = err
			}
			return true
		}
	}
	st := openLoop(r.clk, sch, len(in.steady), func(j int, due time.Time) bool {
		if hard != nil {
			return true // fall through the rest of the schedule; the run fails
		}
		return send(j, due)
	})
	return ack, st, hard
}

// post sends one /v1/events batch. A 202 means every event was accepted;
// anything else is parsed for per-event statuses and the refused events
// come back re-encoded, in order, to be resent (nil when none).
func (s *sut) post(body []byte) (refused []byte, err error) {
	resp, err := s.client.Post(s.url+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		_, err = io.Copy(io.Discard, resp.Body)
		return nil, err
	}
	var er struct {
		Events []struct {
			Status    string `json:"status"`
			Retryable bool   `json:"retryable"`
		} `json:"events"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if json.Unmarshal(raw, &er) != nil || len(er.Events) == 0 {
		return nil, fmt.Errorf("POST /v1/events: %s: %.200s", resp.Status, raw)
	}
	var sent, again []json.RawMessage
	if err := json.Unmarshal(body, &sent); err != nil || len(sent) != len(er.Events) {
		return nil, fmt.Errorf("POST /v1/events: %d statuses for %d events", len(er.Events), len(sent))
	}
	for i, st := range er.Events {
		if st.Status == "accepted" {
			continue
		}
		if !st.Retryable {
			return nil, fmt.Errorf("POST /v1/events: event %d rejected for good: %.200s", i, raw)
		}
		again = append(again, sent[i])
	}
	if len(again) == 0 {
		return nil, nil
	}
	return json.Marshal(again)
}

// saturate is the closed-loop phase: each caller sends its next unit as
// soon as the previous one is acknowledged, a fixed count of events, and
// the clock stops when the last verdict is in — capacity counts
// verdict-complete events, not admissions.
func (r *run) saturate() phaseOut {
	perEvents := len(r.in[0].sat) * r.sp.unitEvents
	out := phaseOut{events: perEvents * nCallers}
	refused := make([]int, nCallers)
	var stopProfile func()
	if r.cfg.profile {
		stopProfile = startCPUProfile(r.cfg.outDir, r.sp.name)
	}
	measure(&out, func() {
		out.err = perCaller(func(c int) error {
			var err error
			refused[c], err = r.saturateCaller(c)
			return err
		})
		if out.err == nil {
			out.err = r.settle((len(r.in[0].steady) + len(r.in[0].sat)) * r.sp.unitEvents)
		}
	})
	if stopProfile != nil {
		stopProfile()
		writeAllocProfile(r.cfg.outDir, r.sp.name)
	}
	for _, n := range refused {
		out.refused += n
	}
	return out
}

func (r *run) saturateCaller(c int) (refused int, err error) {
	in := r.in[c]
	switch r.sp.front {
	case frontInproc:
		// The caller owns its tenant, so it is the only submitter to that
		// tenant's engine and may wait on its Drain: a window of
		// drainChunk outstanding events that never overflows a queue.
		svc := r.sut.services()[c]
		lo, hi := in.sat[0].lo, in.sat[len(in.sat)-1].hi
		for i := lo; i < hi; i++ {
			for {
				err := r.sut.reg.Ingest(in.event(i))
				if err == nil {
					break
				}
				if !errors.Is(err, serve.ErrBusy) {
					return refused, err
				}
				refused++
				r.clk.Sleep(refusalBackoff)
			}
			if (i-lo+1)%drainChunk == 0 {
				svc.Drain()
			}
		}
		svc.Drain()
	case frontHTTP:
		for j := range in.sat {
			body := in.bodies[len(in.steady)+j]
			for body != nil {
				rest, err := r.sut.post(body)
				if err != nil {
					return refused, err
				}
				if rest != nil {
					refused += r.sp.unitEvents
					r.clk.Sleep(refusalBackoff)
				}
				body = rest
			}
		}
	case frontFeed:
		return 0, r.feedBacklog(c)
	}
	return refused, nil
}

// feedBacklog is the feed front's saturate phase — a batch job, not a
// closed loop: the whole backlog lands at once, half in the live file and
// half in the file that replaces it after a rotation, and the feeder
// works through both.
func (r *run) feedBacklog(c int) error {
	in, rig := r.in[c], r.sut.feeders[c]
	chunks := in.lines[len(in.steady):]
	half := len(chunks) / 2
	if _, err := rig.file.Write(bytes.Join(chunks[:half], nil)); err != nil {
		return err
	}
	next := rig.path + ".next"
	if err := os.WriteFile(next, bytes.Join(chunks[half:], nil), 0o644); err != nil {
		return err
	}
	if err := rig.file.Close(); err != nil {
		return err
	}
	if err := os.Rename(rig.path, rig.path+".1"); err != nil {
		return err
	}
	if err := os.Rename(next, rig.path); err != nil {
		return err
	}
	f, err := os.OpenFile(rig.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	rig.file = f
	return nil
}

// awaitFeeders blocks until every feeder has delivered perFeeder lines in
// total and committed the checkpoint of its last batch.
func awaitFeeders(rigs []*feederRig, perFeeder int) error {
	deadline := time.Now().Add(120 * time.Second)
	for _, rig := range rigs {
		for {
			select {
			case err := <-rig.done:
				rig.done <- err
				return fmt.Errorf("feeder stopped early: %v", err)
			default:
			}
			events, batches := rig.deliver.progress()
			if events >= perFeeder &&
				int(scrapeRegistry(rig.metrics.Registry).total("ucad_feed_checkpoints_total")) >= batches {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("feeder shipped %d of %d lines before the deadline", events, perFeeder)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	return nil
}

// feedAcks turns the feeders' batch acknowledgements into one
// due -> delivered sample per steady line: line k of a file is covered by
// the first batch whose cumulative count exceeds k.
func (r *run) feedAcks() *recorder {
	rec := newRecorder(len(r.in[0].steady) * r.sp.unitEvents * nCallers)
	for c, rig := range r.sut.feeders {
		in := r.in[c]
		acks := rig.deliver.snapshot()
		b := 0
		for k := 0; k < in.steady[len(in.steady)-1].hi; k++ {
			for b < len(acks) && acks[b].upto <= k {
				b++
			}
			if b == len(acks) {
				break
			}
			rec.add(acks[b].at.Sub(r.base) - time.Duration(in.due[k]))
		}
	}
	return rec
}
