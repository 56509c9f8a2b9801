package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/tenant"
)

// feedBatch is the ucad-feed default batch size; the traced feed passes
// replay whole batches so the real feeder's batches and the shadow
// pipeline's line up one to one.
const feedBatch = 64

// freshSUT boots another registry like the measured one — same models
// (fresh copies, cold caches), same durability — under its own directory.
// The traced passes each get one, because replaying the same events into
// a registry twice would double every session.
func (r *run) freshSUT(tag string) (*sut, error) {
	dir := filepath.Join(r.sut.dir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &sut{dir: dir, models: r.sut.models}
	s.reg = tenant.New(r.sp.registryOptions(s.dataRoot()))
	for c, m := range r.sut.models {
		u, err := m.load()
		if err != nil {
			return nil, err
		}
		if _, err := s.reg.CreateFromModel(tenant.Spec{ID: tenantID(c)}, u); err != nil {
			return nil, err
		}
	}
	if r.sp.front != frontInproc {
		if err := s.listen(s.reg.Handler()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// traceOut is what the traced passes measured.
type traceOut struct {
	events         int
	untraced       time.Duration // pass A: real front, single caller, no spans
	traced         time.Duration // pass B: the same with spans
	totals         [nKinds]kindTotals
	handlerMallocs uint64 // allocations during the ServeHTTP calls of pass C
	handlerEvents  int
}

// tracePasses replays the first traceEvents steady events three times,
// one caller, one unit at a time, waiting for each unit's verdicts before
// the next so that a unit's service time is a sum of stages, not an
// overlap of them:
//
//	A  through the real front, timed as a whole — the untraced
//	   single-caller service time;
//	B  through the real front with a span around every call — the parent
//	   spans, and against A the cost of tracing;
//	C  through the shadow pipeline (and, for the HTTP fronts, the real
//	   handler on a response sink) — the children.
func (r *run) tracePasses() (*traceOut, error) {
	perCallerEvents := r.z.traceEvents / nCallers
	if r.sp.front == frontFeed {
		perCallerEvents -= perCallerEvents % feedBatch
	}
	out := &traceOut{events: perCallerEvents * nCallers}
	spansPerEvent := 12
	r.tracer = newTracer(out.events * spansPerEvent)

	a, err := r.freshSUT("pass-a")
	if err != nil {
		return nil, err
	}
	if out.untraced, _, err = r.frontPass(a, perCallerEvents, nil); err != nil {
		return nil, err
	}
	a.stop(true)

	b, err := r.freshSUT("pass-b")
	if err != nil {
		return nil, err
	}
	var parents *parentSpans
	if out.traced, parents, err = r.frontPass(b, perCallerEvents, r.tracer); err != nil {
		return nil, err
	}
	b.stop(true)

	c, err := r.freshSUT("pass-c")
	if err != nil {
		return nil, err
	}
	if err := r.shadowPass(c, perCallerEvents, parents, out); err != nil {
		return nil, err
	}
	c.stop(true)
	out.totals = r.tracer.totals()
	return out, nil
}

// parentSpans maps every call of pass B to its span, so pass C can hang
// the re-enacted children under it. Indexed [caller][call ordinal]: the
// call is an event (in-process), a POST (HTTP) or a delivered batch
// (feed); next is per line (feed only) and feeder per caller.
type parentSpans struct {
	front  [nCallers][]int32
	settle [nCallers][]int32
	next   [nCallers][]int32
	feeder [nCallers]int32
}

// frontPass is passes A (tr == nil) and B: the real front, one caller.
func (r *run) frontPass(s *sut, perCallerEvents int, tr *tracer) (time.Duration, *parentSpans, error) {
	ps := &parentSpans{}
	begin := func(parent int32, k spanKind, unit int) int32 {
		if tr == nil {
			return -1
		}
		return tr.begin(parent, k, unit)
	}
	end := func(id int32) {
		if tr != nil {
			tr.end(id)
		}
	}
	start := time.Now()
	for c, in := range r.in {
		svc := s.services()[c]
		switch r.sp.front {
		case frontInproc:
			for i := 0; i < perCallerEvents; i++ {
				id := begin(-1, kIngest, i)
				err := s.reg.Ingest(in.event(i))
				end(id)
				if err != nil {
					return 0, nil, fmt.Errorf("traced ingest: %w", err)
				}
				sid := begin(-1, kSettle, i)
				svc.Drain()
				end(sid)
				ps.front[c], ps.settle[c] = append(ps.front[c], id), append(ps.settle[c], sid)
			}
		case frontHTTP:
			for j := 0; j < perCallerEvents/r.sp.unitEvents; j++ {
				id := begin(-1, kPost, j)
				rest, err := s.post(in.bodies[j])
				end(id)
				if err != nil || rest != nil {
					return 0, nil, fmt.Errorf("traced POST refused or failed: %v", err)
				}
				sid := begin(-1, kSettle, j)
				svc.Drain()
				end(sid)
				ps.front[c], ps.settle[c] = append(ps.front[c], id), append(ps.settle[c], sid)
			}
		case frontFeed:
			if err := r.feederPass(s, c, perCallerEvents, tr, ps); err != nil {
				return 0, nil, err
			}
		}
	}
	return time.Since(start), ps, nil
}

// timedSource wraps the tailer with a span per line returned.
type timedSource struct {
	*feed.Tailer
	tr     *tracer
	parent int32
	spans  *[]int32
}

func (t *timedSource) Next(ctx context.Context) (session.Operation, error) {
	start := time.Now()
	op, err := t.Tailer.Next(ctx)
	if err == nil && t.tr != nil {
		// A Next that fails is the one blocked at end of file when the
		// run is cancelled: waiting for the writer, not work.
		*t.spans = append(*t.spans, t.tr.record(t.parent, kNext, len(*t.spans), start, time.Now()))
	}
	return op, err
}

// feederPass runs the real Feeder over a prewritten file of tenant c's
// first n lines and waits for the last checkpoint. After each delivered
// batch the deliverer wrapper drains the tenant, so scoring is serialized
// behind delivery exactly as the in-process and HTTP passes serialize it.
func (r *run) feederPass(s *sut, c, n int, tr *tracer, ps *parentSpans) error {
	in := r.in[c]
	svc := s.services()[c]
	root := int32(-1)
	if tr != nil {
		root = tr.begin(-1, kFeeder, c)
		ps.feeder[c] = root
	}
	rig, err := startFeeder(s, c, func(t feed.Source) feed.Source {
		return &timedSource{Tailer: t.(*feed.Tailer), tr: tr, parent: root, spans: &ps.next[c]}
	})
	if err != nil {
		return err
	}
	rig.deliver.onDeliver = func(start, end time.Time, k int) {
		batch := len(ps.front[c])
		id, sid := int32(-1), int32(-1)
		if tr != nil {
			id = tr.record(root, kDeliver, batch, start, end)
			sid = tr.begin(root, kSettle, batch)
		}
		svc.Drain()
		if tr != nil {
			tr.end(sid)
		}
		ps.front[c], ps.settle[c] = append(ps.front[c], id), append(ps.settle[c], sid)
	}
	var lines []byte
	for j := 0; j*r.sp.unitEvents < n; j++ {
		lines = append(lines, in.lines[j]...)
	}
	// n need not be a whole number of units: cut at the n-th newline.
	if idx := nthNewline(lines, n); idx >= 0 {
		lines = lines[:idx+1]
	}
	if _, err := rig.file.Write(lines); err != nil {
		return err
	}
	err = awaitFeeders([]*feederRig{rig}, n)
	if tr != nil {
		tr.end(root)
	}
	rig.stop()
	return err
}

func nthNewline(b []byte, n int) int {
	for i, ch := range b {
		if ch == '\n' {
			if n--; n == 0 {
				return i
			}
		}
	}
	return -1
}

// shadowPass is pass C: every stage re-enacted on fresh instances, each
// span filed under the pass-B call it explains.
func (r *run) shadowPass(s *sut, perCallerEvents int, ps *parentSpans, out *traceOut) error {
	tr := r.tracer
	handler := s.reg.Handler()
	for c, in := range r.in {
		st, err := r.newShadowTenant(tr, c, s.dir)
		if err != nil {
			return err
		}
		svc := s.services()[c]
		// serveHTTP runs the real handler on a sink (span under parent),
		// then re-enacts its children: decode, and per event the ingest
		// stages.
		serveHTTP := func(parent, settle int32, unit int, body []byte) error {
			req, err := http.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body))
			if err != nil {
				return err
			}
			var sink responseSink
			before := mallocs()
			h := tr.begin(parent, kHandler, unit)
			handler.ServeHTTP(&sink, req)
			tr.end(h)
			out.handlerMallocs += mallocs() - before
			if sink.status != http.StatusAccepted {
				return fmt.Errorf("traced handler answered %d", sink.status)
			}
			svc.Drain()
			req2, _ := http.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body)) // same arguments as above
			d := tr.begin(h, kDecode, unit)
			events, _, err := serve.DecodeEvents(req2)
			tr.end(d)
			if err != nil {
				return err
			}
			out.handlerEvents += len(events)
			for _, ev := range events {
				if err := st.ingest(h, settle, unit, ev); err != nil {
					return err
				}
			}
			return nil
		}
		switch r.sp.front {
		case frontInproc:
			for i := 0; i < perCallerEvents; i++ {
				if err := st.ingest(ps.front[c][i], ps.settle[c][i], i, in.event(i)); err != nil {
					return err
				}
			}
		case frontHTTP:
			for j := 0; j < perCallerEvents/r.sp.unitEvents; j++ {
				if err := serveHTTP(ps.front[c][j], ps.settle[c][j], j, in.bodies[j]); err != nil {
					return err
				}
			}
		case frontFeed:
			err = r.shadowFeed(st, c, perCallerEvents, ps, serveHTTP)
		}
		st.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// shadowFeed re-enacts the feeder's stages line by line — parse,
// sessionize — and batch by batch — encode, then the handler and its
// children.
func (r *run) shadowFeed(st *shadowTenant, c, n int, ps *parentSpans,
	serveHTTP func(parent, settle int32, unit int, body []byte) error) error {
	tr, in := st.tr, r.in[c]
	var all []byte
	for j := 0; j*r.sp.unitEvents < n; j++ {
		all = append(all, in.lines[j]...)
	}
	lines := bytes.SplitAfter(all, []byte{'\n'})
	z := feed.NewSessionizer(0, nil)
	batch := make([]serve.Event, 0, feedBatch)
	for i := 0; i < n; i++ {
		line := bytes.TrimSuffix(lines[i], []byte{'\n'})
		p := tr.begin(ps.next[c][i], kParse, i)
		op, err := feed.ParseJSONLine(line)
		tr.end(p)
		if err != nil {
			return err
		}
		z0 := tr.begin(ps.feeder[c], kSessionize, i)
		ev := z.Event(in.tenant, op)
		tr.end(z0)
		batch = append(batch, ev)
		if len(batch) < feedBatch {
			continue
		}
		b := i / feedBatch
		e := tr.begin(ps.front[c][b], kEncode, b)
		body, err := json.Marshal(batch)
		tr.end(e)
		if err != nil {
			return err
		}
		if err := serveHTTP(ps.front[c][b], ps.settle[c][b], b, body); err != nil {
			return err
		}
		batch = batch[:0]
	}
	return nil
}
