package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"text/tabwriter"
	"time"
)

// spanKind names a span: the layer (one of the repository's modules) and
// the call it wraps.
type spanKind uint8

const (
	// Real-front parents (pass B).
	kIngest  spanKind = iota // tenant.Registry.Ingest, one event
	kPost                    // POST /v1/events over loopback, one batch
	kSettle                  // Service.Drain after a unit: queue wait, scoring, alert store
	kNext                    // feed source Next, one line
	kDeliver                 // feed Deliverer.Deliver, one batch
	kFeeder                  // the Feeder loop around Next and Deliver
	// Real handler on a ResponseRecorder (pass D).
	kHandler
	// Shadow pipeline (pass C): fresh public instances of each layer.
	kParse
	kSessionize
	kEncode
	kDecode
	kKey
	kAppend
	kWAL
	kSubmit
	kQueueWait
	kRankBatch
	kCacheGet
	kForward
	kCachePut
	kHandoff
	nKinds
)

// kindInfo gives every span kind its layer, its name, and the budget row
// its self time lands in.
var kindInfo = [nKinds]struct{ layer, name, row string }{
	kIngest:     {"serve", "Registry.Ingest", "serve.ingest_self"},
	kPost:       {"tenant", "POST /v1/events", "tenant.http_loopback"},
	kSettle:     {"serve", "Service.Drain", "serve.result_self"},
	kNext:       {"feed", "Tailer.Next", "feed.tailer_self"},
	kDeliver:    {"feed", "HTTPDeliverer.Deliver", "feed.deliver_self"},
	kFeeder:     {"feed", "Feeder.Run", "feed.checkpoint_and_loop"},
	kHandler:    {"tenant", "Handler.ServeHTTP", "tenant.handler_self"},
	kParse:      {"feed", "ParseJSONLine", "feed.parse_jsonl"},
	kSessionize: {"feed", "Sessionizer.Event", "feed.sessionize"},
	kEncode:     {"feed", "json.Marshal(batch)", "feed.encode_batch"},
	kDecode:     {"serve", "DecodeEvents", "serve.decode_events"},
	kKey:        {"sqlnorm", "Vocabulary.Key", "sqlnorm.key"},
	kAppend:     {"serve", "Assembler.Append", "serve.assembler_append"},
	kWAL:        {"wal", "Log.Append", "wal.append"},
	kSubmit:     {"serve", "Engine.Submit", "serve.engine_submit"},
	kQueueWait:  {"serve", "queue wait", "serve.queue_wait"},
	kRankBatch:  {"detect", "Online.RankBatch", "detect.rank_self"},
	kCacheGet:   {"scorecache", "Cache.GetInto", "scorecache.get"},
	kForward:    {"transdas", "Scorer.RankBatchInto", "transdas.forward"},
	kCachePut:   {"scorecache", "Cache.Put", "scorecache.put"},
	kHandoff:    {"serve", "result handoff", "serve.handoff"},
}

// span is one timed call. Spans of one unit share its unit id; parent is
// the span that caused it (-1 for a root). Shadow spans hang under the
// real-front span of the same unit, recorded in an earlier pass: they are
// that call's children re-enacted on fresh instances, not sub-intervals
// of it.
type span struct {
	id, parent int32
	kind       spanKind
	unit       int32
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex // the scoring worker records spans too
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(parent int32, kind spanKind, unit int) int32 {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, kind: kind, unit: int32(unit), start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(parent int32, kind spanKind, unit int, start, end time.Time) int32 {
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, kind: kind, unit: int32(unit),
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base))})
	t.mu.Unlock()
	return id
}

// kindTotals is the aggregate of one span kind.
type kindTotals struct {
	count int
	dur   int64 // Σ (end - start)
	self  int64 // Σ (duration − the part its children cover)
}

// totals computes every kind's duration and self time. A unit is
// processed strictly sequentially (the caller waits for the verdict
// before the next call), so a span's children never overlap each other
// and the time they cover is the sum of their durations. Self time is
// signed: shadow children are re-enactments measured in a separate pass,
// and when they come out slower than the call they explain, the residual
// is negative and is reported as such rather than clamped away.
func (t *tracer) totals() [nKinds]kindTotals {
	var out [nKinds]kindTotals
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		k := &out[s.kind]
		k.count++
		k.dur += s.end - s.start
		k.self += s.end - s.start - covered[i]
	}
	return out
}

// budgetRow is one line of a workload's latency budget: a layer's self
// time per event along the single-caller path.
type budgetRow struct {
	Layer      string  `json:"layer"`
	Row        string  `json:"row"`
	Calls      int     `json:"calls"`
	UsPerEvent float64 `json:"us_per_event"`
	Share      float64 `json:"share"` // of the traced single-caller service time
}

func printBudget(w *os.File, rows []budgetRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  budget row\tlayer\tcalls\tus/event\tshare")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.3f\t%.1f%%\n", r.Row, r.Layer, r.Calls, r.UsPerEvent, 100*r.Share)
	}
	tw.Flush()
}

// write dumps the spans as <dir>/<workload>.trace.json.
func (t *tracer) write(dir, workload string, budget []budgetRow) error {
	type jsonSpan struct {
		ID     int32  `json:"id"`
		Parent int32  `json:"parent"`
		Layer  string `json:"layer"`
		Name   string `json:"name"`
		UnitID int32  `json:"unit_id"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"workload":%q,"budget":`, workload)
	if err := enc.Encode(budget); err != nil {
		return err
	}
	w.WriteString(`,"spans":[` + "\n")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		info := kindInfo[s.kind]
		if err := enc.Encode(jsonSpan{s.id, s.parent, info.layer, info.name, s.unit, s.start, s.end}); err != nil {
			return err
		}
	}
	w.WriteString("]}\n")
	// A bufio.Writer keeps its first error and returns it from Flush.
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
