package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ucad/ucad/internal/detect"
	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/tenant"
	"github.com/ucad/ucad/internal/tensor"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/wal"
)

// layerInputs is what the untraced half of a traced run hands to the
// per-layer report: the phases' outside measurements and the program's
// own counters before and after.
type layerInputs struct {
	steady, sat           phaseOut
	hubSteady, hubAll     scrape // growth of the serve metrics over steady / both phases
	steadyStats, endStats serve.Stats
	image                 string // crash image of the data dir ("" unless http-durable)
	lateP99, failedShare  float64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probe times n calls of fn on this goroutine and reports nanoseconds and
// heap allocations per call. Nothing else runs while a probe does: the
// phases are over and the traced passes wait for each verdict.
func probe(n int, fn func(i int)) (ns, allocs float64) {
	before := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	took := time.Since(start)
	return float64(took.Nanoseconds()) / float64(n), float64(mallocs()-before) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the report with every per-layer metric. "S" values are
// read from the program's own counters over the untraced phases; "T"
// values come from the traced passes and from probes that call one
// layer's public functions on this workload's inputs.
func (r *run) perLayer(rp *report, li layerInputs) error {
	set := rp.set
	steadyEv, allEv := float64(li.steady.events), float64(li.steady.events+li.sat.events)

	// ---- S: the program's counters over the untraced phases ----
	// Stage latencies are the steady phase's (the regime alert delay is
	// measured in); totals below cover both phases.
	hs, h := li.hubSteady, li.hubAll
	set("serve.ingest_us_mean", hs.histMean("ucad_ingest_seconds")*1e6, "us")
	set("serve.queue_wait_us_mean", hs.histMean("ucad_queue_wait_seconds")*1e6, "us")
	set("serve.queue_wait_us_p99", hs.histBound("ucad_queue_wait_seconds", 0.99)*1e6, "us")
	set("serve.queue_depth_max", float64(r.depth.max), "count")
	set("serve.batch_size_mean", hs.histMean("ucad_score_batch_size"), "count")
	set("serve.score_batch_us_mean", hs.histMean("ucad_score_seconds")*1e6, "us")
	set("serve.busy_refusals", float64(li.endStats.EventsRejected), "count")
	set("serve.dup_events", float64(li.endStats.DuplicateEvents), "count")
	// Counts over the steady phase repeat exactly for a fixed seed.
	set("serve.ops_scored", float64(li.steadyStats.OpsScored), "count")
	set("serve.alerts_raised", float64(li.steadyStats.AlertsRaised), "count")
	set("serve.flag_rate", ratio(float64(li.steadyStats.MidSessionFlags), float64(li.steadyStats.OpsScored)), "ratio")
	set("serve.unknown_key_share", ratio(float64(li.steadyStats.UnknownKeys), steadyEv), "ratio")
	set("wal.fsyncs_per_event", h.total("ucad_wal_fsync_seconds_count")/allEv, "1/event")
	set("wal.fsync_us_mean", h.histMean("ucad_wal_fsync_seconds")*1e6, "us")
	set("wal.bytes_per_event", h.total("ucad_wal_segment_bytes")/allEv, "B/event")
	lookups := float64(li.endStats.ScoreCacheHits + li.endStats.ScoreCacheMisses)
	set("scorecache.hit_rate", ratio(float64(li.endStats.ScoreCacheHits), lookups), "ratio")
	set("scorecache.evictions", float64(li.endStats.ScoreCacheEvictions), "count")
	fd := scrape{}
	for _, rig := range r.sut.feeders {
		for k, v := range scrapeRegistry(rig.metrics.Registry) {
			fd[k] += v
		}
	}
	set("feed.deliver_us_per_batch", fd.histMean("ucad_feed_delivery_seconds")*1e6, "us")
	set("feed.checkpoints", fd.total("ucad_feed_checkpoints_total"), "count")
	set("feed.delivery_retries", fd.total("ucad_feed_delivery_retries_total"), "count")
	set("feed.lag_bytes_max", r.depth.lagMax, "B")
	set("proc.allocs_per_event", float64(li.sat.mem.mallocs)/float64(li.sat.events), "1/event")
	set("proc.alloc_bytes_per_event", float64(li.sat.mem.bytes)/float64(li.sat.events), "B/event")
	set("proc.gc_pause_ms_total", li.sat.mem.gcPause.Seconds()*1e3, "ms")
	set("bench.gen_late_p99_us", li.lateP99, "us")
	set("bench.failed_share", li.failedShare, "ratio")
	var trainS, windows float64
	for _, m := range r.sut.models {
		trainS += m.took.Seconds()
		windows += float64(m.windows)
	}
	set("transdas.train_s", trainS, "s")
	set("transdas.train_windows_per_s", ratio(windows, trainS), "1/s")

	if err := r.durabilityLayer(rp, li); err != nil {
		return err
	}
	// The measured system has said all it has to say: free it before the
	// traced passes boot three more like it.
	r.sut.stop(true)

	// ---- T: traced passes and the budget ----
	to, err := r.tracePasses()
	if err != nil {
		return fmt.Errorf("traced passes: %w", err)
	}
	r.budget(rp, to)
	if err := r.tracer.write(r.cfg.outDir, r.sp.name, rp.Budget); err != nil {
		return err
	}
	// ---- T: one layer at a time ----
	return r.probes(rp)
}

// durabilityLayer measures snapshot and recovery on the http-durable
// workload (zero elsewhere: the other workloads never restart).
func (r *run) durabilityLayer(rp *report, li layerInputs) error {
	rp.set("serve.snapshot_ms", 0, "ms")
	rp.set("serve.recover_s", 0, "s")
	rp.set("serve.restore_records_per_s", 0, "1/s")
	rp.set("serve.recovered_sessions", 0, "count")
	if li.image == "" {
		return nil
	}
	start := time.Now()
	for _, svc := range r.sut.services() {
		if err := svc.SnapshotNow(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	rp.set("serve.snapshot_ms", time.Since(start).Seconds()*1e3, "ms")

	// Recovery: a fresh registry boots from the crash image taken after
	// the steady phase; it is ready once Ingest stops answering
	// ErrNotReady, which Boot's return guarantees.
	start = time.Now()
	reg := tenant.New(r.sp.registryOptions(li.image))
	if err := reg.Boot(nil); err != nil {
		return fmt.Errorf("recover from crash image: %w", err)
	}
	took := time.Since(start)
	var sessions, records int
	for _, t := range reg.List() {
		st := t.RestoreStats()
		sessions += st.Sessions
		records += st.Records
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	reg.Close(ctx)
	cancel()
	rp.set("serve.recover_s", took.Seconds(), "s")
	rp.set("serve.restore_records_per_s", float64(records)/took.Seconds(), "1/s")
	rp.set("serve.recovered_sessions", float64(sessions), "count")
	if sessions != li.steadyStats.SessionsOpen {
		rp.fail("recovered_sessions", abs(sessions-li.steadyStats.SessionsOpen))
		rp.Correct = false
	}
	return nil
}

// budget turns the traced passes into the per-workload latency budget:
// one row per layer stage, self time per event, rows summing to the
// traced single-caller service time.
func (r *run) budget(rp *report, to *traceOut) {
	var total int64
	for k := spanKind(0); k < nKinds; k++ {
		total += to.totals[k].self
	}
	layerShare := make(map[string]float64)
	ev := float64(to.events)
	for k := spanKind(0); k < nKinds; k++ {
		t := to.totals[k]
		if t.count == 0 {
			continue
		}
		info := kindInfo[k]
		row := budgetRow{Layer: info.layer, Row: info.row, Calls: t.count,
			UsPerEvent: float64(t.self) / ev / 1e3, Share: ratio(float64(t.self), float64(total))}
		rp.Budget = append(rp.Budget, row)
		layerShare[info.layer] += row.Share
	}
	for _, layer := range []string{"feed", "tenant", "serve", "sqlnorm", "wal", "scorecache", "detect", "transdas"} {
		rp.set("budget."+layer+"_share", layerShare[layer], "ratio")
	}
	rp.set("budget.decode_share", ratio(float64(to.totals[kDecode].self), float64(total)), "ratio")
	rp.set("bench.service_us_untraced", to.untraced.Seconds()*1e6/ev, "us/event")
	rp.set("bench.service_us_traced", float64(total)/ev/1e3, "us/event")
	rp.set("bench.budget_sum_vs_untraced", ratio(float64(total), float64(to.untraced.Nanoseconds())), "ratio")
	rp.set("bench.trace_overhead_share", ratio(float64(to.traced-to.untraced), float64(to.untraced)), "ratio")

	per := func(k spanKind) float64 { return ratio(float64(to.totals[k].dur), float64(to.totals[k].count)) }
	rp.set("serve.ingest_self_ns", ratio(float64(to.totals[kIngest].self), float64(to.totals[kIngest].count)), "ns")
	rp.set("serve.engine_submit_ns", per(kSubmit), "ns")
	hev := float64(to.handlerEvents)
	rp.set("tenant.handler_self_us_per_event", ratio(float64(to.totals[kHandler].self), hev)/1e3, "us")
	rp.set("tenant.handler_allocs_per_event", ratio(float64(to.handlerMallocs), hev), "1/event")
	loop := 0.0
	if n := to.totals[kPost].count; n > 0 {
		loop = float64(to.totals[kPost].self) / float64(n) / 1e3
	}
	rp.set("tenant.http_loopback_us_per_batch", loop, "us")
}

// probes calls one layer's public functions at a time on this workload's
// inputs: the numbers a change to that layer alone should move.
func (r *run) probes(rp *report) error {
	set := rp.set
	in := r.in[0]
	n := r.z.traceEvents / nCallers
	u, err := r.sut.models[0].load()
	if err != nil {
		return err
	}
	cfg := u.Model.Config()

	// generator: what building and handing over an event costs the bench.
	var sinkEv serve.Event
	ns, _ := probe(n, func(i int) { sinkEv = in.event(i) })
	_ = sinkEv
	set("bench.gen_ns_per_event", ns, "ns")

	// sqlnorm
	keys := make([]int, n)
	ns, allocs := probe(n, func(i int) { keys[i] = u.Vocab.Key(in.stmt(&in.events[i])) })
	set("sqlnorm.key_ns", ns, "ns")
	set("sqlnorm.key_allocs", allocs, "1/op")

	// feed
	lines := bytes.Split(bytes.TrimSuffix(encodeLines(in, unit{0, n}, time.Unix(1655000000, 0).UTC(), time.Millisecond), []byte{'\n'}), []byte{'\n'})
	ops := make([]session.Operation, n)
	var derr error
	ns, allocs = probe(n, func(i int) { ops[i], derr = feed.ParseJSONLine(lines[i]) })
	if derr != nil {
		return derr
	}
	set("feed.parse_jsonl_ns", ns, "ns")
	set("feed.parse_allocs", allocs, "1/op")
	// The sessionized events carry (epoch, seq): kept for the assembler's
	// fenced-dedupe probe below.
	fenced := make([]serve.Event, n)
	z := feed.NewSessionizer(0, nil)
	ns, _ = probe(n, func(i int) { fenced[i] = z.Event(in.tenant, ops[i]) })
	set("feed.sessionize_ns", ns, "ns")
	dir := filepath.Join(r.sut.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	auditPath := filepath.Join(dir, "audit.jsonl")
	if err := os.WriteFile(auditPath, append(bytes.Join(lines, []byte{'\n'}), '\n'), 0o644); err != nil {
		return err
	}
	tailer, err := feed.NewTailer(feed.TailerConfig{Path: auditPath})
	if err != nil {
		return err
	}
	ns, _ = probe(n, func(int) { _, derr = tailer.Next(context.Background()) })
	tailer.Close()
	if derr != nil {
		return derr
	}
	set("feed.tailer_next_ns", ns, "ns")

	// serve: assembler, both dedupe variants; decode.
	asm := serve.NewAssembler(10*time.Minute, nil)
	ns, allocs = probe(n, func(i int) { asm.Append(in.event(i), keys[i], cfg.Window+1) })
	set("serve.assembler_append_ns", ns, "ns")
	set("serve.assembler_append_allocs", allocs, "1/op")
	asm = serve.NewAssembler(10*time.Minute, nil)
	ns, _ = probe(n, func(i int) { asm.Append(fenced[i], keys[i], cfg.Window+1) })
	set("serve.assembler_append_fenced_ns", ns, "ns")

	nb := n / 32
	bodies := make([][]byte, nb)
	for j := range bodies {
		bodies[j] = encodeBody(in, unit{j * 32, j*32 + 32})
	}
	ns, allocs = probe(nb, func(j int) {
		req, _ := http.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(bodies[j])) // constant, valid arguments
		if _, _, err := serve.DecodeEvents(req); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}
	set("serve.decode_events_us_per_event", ns/32/1e3, "us")
	set("serve.decode_events_allocs_per_event", allocs/32, "1/event")

	// tenant: routing is the registry's id -> tenant lookup.
	reg := tenant.New(tenant.Options{})
	ru, err := r.sut.models[0].load()
	if err != nil {
		return err
	}
	if _, err := reg.CreateFromModel(tenant.Spec{ID: in.tenant}, ru); err != nil {
		return err
	}
	ns, _ = probe(n, func(int) { reg.Get(in.tenant) })
	set("tenant.route_ns_per_event", ns, "ns")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	reg.Close(ctx)
	cancel()

	// wal: record-sized appends on scratch logs. The fsync=always figure
	// is the disk's, not the code's.
	payload := bytes.Repeat([]byte{'x'}, 220)
	for _, pol := range []struct {
		name string
		sync wal.SyncPolicy
		n    int
	}{{"wal.append_us_always", wal.SyncAlways, 400}, {"wal.append_us_never", wal.SyncNever, 20000}} {
		l, err := wal.Open(filepath.Join(dir, pol.name), wal.Options{Sync: pol.sync})
		if err != nil {
			return err
		}
		ns, _ = probe(pol.n, func(int) {
			if err := l.Append(payload); err != nil {
				derr = err
			}
		})
		if err := l.Close(); err != nil || derr != nil {
			return fmt.Errorf("scratch wal: %v %v", err, derr)
		}
		set(pol.name, ns/1e3, "us")
	}
	seg := filepath.Join(dir, "wal.append_us_never", wal.SegmentFileName("wal-", 1))
	start := time.Now()
	records, err := wal.ReplaySegmentFile(seg, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	set("wal.replay_records_per_s", float64(records)/time.Since(start).Seconds(), "1/s")

	// scorecache: hits, misses and inserts on a cache of the serving size.
	// Contexts are the stream's own key windows.
	ctxs := contextsOf(in, keys, cfg.Window, n)
	cache := scorecache.New(cacheRows)
	row := make([]float64, cfg.Vocab)
	warm := len(ctxs)
	if warm > cacheRows/2 {
		warm = cacheRows / 2
	}
	ns, _ = probe(warm, func(i int) { cache.GetInto(row, ctxs[i]) })
	set("scorecache.get_miss_ns", ns, "ns")
	ns, _ = probe(warm, func(i int) { cache.Put(ctxs[i], row) })
	set("scorecache.put_ns", ns, "ns")
	ns, _ = probe(warm, func(i int) { cache.GetInto(row, ctxs[i]) })
	set("scorecache.get_hit_ns", ns, "ns")

	// detect / transdas: ranking with the cache detached.
	online := detect.NewOnline(u)
	u.Model.SetScorePrecision(r.sp.model.precision)
	b16c, b16k := ctxs[:16], make([]int, 16)
	var ranks []int
	reps := 200
	ns, _ = probe(reps, func(int) { ranks = online.RankBatch(ranks[:0], b16c, b16k) })
	set("detect.rank_batch_us_b16", ns/1e3, "us")
	scorer := u.Model.NewScorer()
	for _, p := range []struct {
		name string
		prec transdas.Precision
		b    int
	}{
		{"transdas.rank_f32_us_per_op_b1", transdas.PrecisionFloat32, 1},
		{"transdas.rank_f32_us_per_op_b16", transdas.PrecisionFloat32, 16},
		{"transdas.rank_f64_us_per_op_b1", transdas.PrecisionFloat64, 1},
		{"transdas.rank_f64_us_per_op_b16", transdas.PrecisionFloat64, 16},
	} {
		u.Model.SetScorePrecision(p.prec)
		ns, _ = probe(reps, func(i int) {
			lo := (i * p.b) % (len(ctxs) - p.b)
			ranks = scorer.RankBatchInto(ranks[:0], ctxs[lo:lo+p.b], b16k[:p.b])
		})
		set(p.name, ns/float64(p.b)/1e3, "us")
	}
	set("transdas.flops_per_op", flopsPerOp(cfg), "flop")

	// tensor: the fused Q|K|V projection of a full batch, (16·L x h)·(h x 3h).
	rows, hd := 16*cfg.Window, cfg.Hidden
	flop := 2 * float64(rows) * float64(hd) * float64(3*hd)
	a64, b64, d64 := tensor.NewMatrix(rows, hd), tensor.NewMatrix(hd, 3*hd), tensor.NewMatrix(rows, 3*hd)
	a64.Fill(0.5)
	b64.Fill(0.25)
	ns, _ = probe(reps, func(int) { tensor.MatMulInto(d64, a64, b64) })
	set("tensor.matmul64_gflops", flop/ns, "Gflop/s")
	a32, b32, d32 := tensor.Matrix32From(a64), tensor.Matrix32From(b64), tensor.NewMatrix32(rows, 3*hd)
	ns, _ = probe(reps, func(int) { tensor.MatMulInto32(d32, a32, b32) })
	set("tensor.matmul32_gflops", flop/ns, "Gflop/s")

	// obs: the cost of one histogram observation — the instrumentation's
	// own share of every instrumented call.
	hist := obs.NewRegistry().Histogram("bench_probe_seconds", "probe", obs.LatencyBuckets)
	ns, _ = probe(200000, func(i int) { hist.Observe(float64(i%1000) * 1e-6) })
	set("obs.histogram_observe_ns", ns, "ns")
	return nil
}

// contextsOf rebuilds the key windows the scorer sees: for each event
// past the first of its session, the up-to-window keys before it.
func contextsOf(in *callerInput, keys []int, window, n int) [][]int {
	bySess := make(map[int32][]int)
	var out [][]int
	for i := 0; i < n; i++ {
		s := in.events[i].sess
		hist := bySess[s]
		if len(hist) > 0 {
			lo := 0
			if len(hist) > window {
				lo = len(hist) - window
			}
			out = append(out, append([]int(nil), hist[lo:]...))
		}
		bySess[s] = append(hist, keys[i])
	}
	return out
}

// flopsPerOp is the arithmetic of one scored operation, computed from the
// model's shape (not measured): per block, the fused Q|K|V projection and
// the output projection (8·L·h²), the attention scores and weighted sum
// (4·L²·h), and the feed-forward pair (4·L·h²); then the similarity
// read-out against every key (2·V·h). Multiply-adds count as two.
func flopsPerOp(c transdas.Config) float64 {
	l, h, v := float64(c.Window), float64(c.Hidden), float64(c.Vocab)
	return float64(c.Blocks)*(8*l*h*h+4*l*l*h+4*l*h*h) + 2*v*h
}
