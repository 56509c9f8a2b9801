package main

import (
	"errors"
	"fmt"

	"github.com/ucad/ucad/internal/serve"
)

// referenceEvents is how many steady events per tenant the reference run
// replays (the first 10 000 of the run, split across the two tenants).
const referenceEvents = 5000

type flagKey struct {
	caller    int
	sess, pos int32
}

type checkOut struct {
	failures map[string]int
}

// check compares the measured run against a reference: the first steady
// events replayed through a single-shard, single-worker, batch-1,
// non-durable serve.Service on a fresh copy of the same model at the same
// precision, without a score cache — the single-threaded baseline every
// concurrent, batched, cached or durable path must agree with.
//
// It counts, as failures: flagged (tenant, client, position) triples the
// two runs disagree on (restricted to the replayed events), scored
// operations and accepted events that differ from what was sent, and
// duplicates.
func (r *run) check(alerts []tenantAlert, steadyStats, endStats serve.Stats) (*checkOut, error) {
	out := &checkOut{failures: make(map[string]int)}
	measured := make(map[flagKey]bool)
	for _, a := range alerts {
		in := r.in[a.caller]
		si, ok := in.byClient[a.Client]
		if !ok {
			out.failures["unknown_alert_client"]++
			continue
		}
		sess := &in.sessions[si]
		for _, p := range a.Positions {
			if p < len(sess.events) && int(sess.events[p]) < referenceEvents {
				measured[flagKey{a.caller, si, int32(p)}] = true
			}
		}
	}

	reference := make(map[flagKey]bool)
	var wantScored, wantRefScored, refScored int64
	for c, in := range r.in {
		u, err := r.sut.models[c].load()
		if err != nil {
			return nil, fmt.Errorf("reference model: %w", err)
		}
		u.Model.SetScorePrecision(r.sp.model.precision)
		minCtx := int32(u.Model.Config().MinContext)
		ref := serve.NewService(u, serve.Config{Shards: 1, Workers: 1, Batch: 1, QueueSize: sutQueue})
		steadyEnd := in.steady[len(in.steady)-1].hi
		n := referenceEvents
		if n > steadyEnd {
			n = steadyEnd
		}
		for i := 0; i < n; i++ {
			for {
				err := ref.Ingest(in.event(i))
				if err == nil {
					break
				}
				if !errors.Is(err, serve.ErrBusy) {
					return nil, fmt.Errorf("reference ingest: %w", err)
				}
				ref.Drain() // one submitter: waiting on the engine is safe
			}
		}
		ref.Drain()
		refScored += ref.Stats().OpsScored
		refAlerts := ref.Alerts("")
		ref.Stop() // or its workers would pin the reference's sessions in the live heap
		for _, a := range refAlerts {
			si := in.byClient[a.Client]
			for _, p := range a.Positions {
				reference[flagKey{c, si, int32(p)}] = true
			}
		}
		for i := 0; i < steadyEnd; i++ {
			if in.events[i].pos >= minCtx {
				wantScored++
				if i < n {
					wantRefScored++
				}
			}
		}
	}
	if r.cfg.inject == "flip" {
		// Self-test: corrupt one reference verdict.
		k := flagKey{0, r.in[0].events[injectAt].sess, r.in[0].events[injectAt].pos}
		reference[k] = !reference[k]
	}

	for k, v := range reference {
		if v && !measured[k] {
			out.failures["verdict_missed"]++
		}
	}
	for k := range measured {
		if !reference[k] {
			out.failures["verdict_extra"]++
		}
	}
	// The reference itself must have scored exactly the operations the
	// counting rule predicts, or the rule (not the program) is wrong.
	out.failures["reference_ops_scored"] = abs(int(refScored - wantRefScored))
	out.failures["ops_scored"] = abs(int(steadyStats.OpsScored - wantScored))
	sent := int64(r.z.steadyEvents + r.z.satEvents)
	out.failures["events_lost_or_extra"] = abs(int(endStats.EventsAccepted - sent))
	out.failures["duplicates"] = int(endStats.DuplicateEvents)
	return out, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
