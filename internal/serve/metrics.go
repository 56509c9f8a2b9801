package serve

import (
	"strconv"
	"sync"

	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/scorecache"
)

// DefaultTenant is the tenant label under which a single-tenant
// deployment's metrics are exported, and the tenant that events without
// an explicit tenant id route to. Keeping the label present even with
// one tenant means dashboards and alerts written against the labelled
// series survive the move to multi-tenancy unchanged.
const DefaultTenant = "default"

// MetricsHub owns the serving layer's metric families, every one
// partitioned by a "tenant" label, on one shared registry scraped from
// GET /metrics. Each Service binds to one per-tenant view (Metrics), so
// N tenants in one process export N children per family — never N
// copies of the family — and the scrape answers "which tenant is
// slow/anomalous" directly.
//
// Cardinality is bounded by construction: children exist only for
// tenants a Service was bound to (tenant ids are validated, registered
// entities — never request-supplied strings), and RemoveTenant drops a
// decommissioned tenant's children from every family, so tenant churn
// cannot grow the exposition without bound.
//
// It splits along the two obs registration styles: per-stage latency
// histograms and training gauges are owned children updated on the hot
// paths, while the lifetime counters (events, scored ops, sessions,
// alerts, retrains) are func-backed children reading the same atomics
// that Service.Stats snapshots — /stats and /metrics cannot disagree
// because they share one source of truth.
type MetricsHub struct {
	// Registry carries every family; expose it with Registry.Handler().
	Registry *obs.Registry

	mu      sync.Mutex
	tenants map[string]*Metrics

	// Owned families (hot-path instruments).
	ingestSeconds      *obs.HistogramVec
	queueWaitSeconds   *obs.HistogramVec
	scoreSeconds       *obs.HistogramVec
	closeoutSeconds    *obs.HistogramVec
	retrainSeconds     *obs.HistogramVec
	scoreBatchSize     *obs.HistogramVec
	alertsResolved     *obs.CounterVec // labels: tenant, verdict
	trainEpochLoss     *obs.GaugeVec
	trainWindowsPerSec *obs.GaugeVec
	trainEpochs        *obs.CounterVec
	trainEpochSeconds  *obs.HistogramVec
	walAppends         *obs.CounterVec
	walFsyncSeconds    *obs.HistogramVec
	snapshotSeconds    *obs.HistogramVec

	// Per-shard families, labelled {tenant, shard}. Kept out of the
	// single-label cfuncs/gfuncs maps — RemoveTenant walks those with
	// one label value, which would never match a two-label child.
	shardQueueWait  *obs.HistogramVec
	shardQueueDepth *obs.GaugeFuncVec

	// Func-backed families, bound per tenant by Metrics.bind.
	cfuncs map[string]*obs.CounterFuncVec
	gfuncs map[string]*obs.GaugeFuncVec
}

// NewMetricsHub registers the serving layer's tenant-labelled families
// on reg (nil means a fresh private registry). Call Tenant to carve
// per-tenant views; a registry accepts exactly one hub (a second
// registration panics on the duplicate family names).
func NewMetricsHub(reg *obs.Registry) *MetricsHub {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h := &MetricsHub{
		Registry: reg,
		tenants:  make(map[string]*Metrics),
		cfuncs:   make(map[string]*obs.CounterFuncVec),
		gfuncs:   make(map[string]*obs.GaugeFuncVec),
		ingestSeconds: reg.HistogramVec("ucad_ingest_seconds",
			"Latency of Service.Ingest: tokenize, assemble, enqueue for scoring.", obs.LatencyBuckets, "tenant"),
		queueWaitSeconds: reg.HistogramVec("ucad_queue_wait_seconds",
			"Time a scoring job waited in the queue before a worker picked it up.", obs.LatencyBuckets, "tenant"),
		scoreSeconds: reg.HistogramVec("ucad_score_seconds",
			"Latency of one fused micro-batch scoring pass (stacked model forward).", obs.LatencyBuckets, "tenant"),
		closeoutSeconds: reg.HistogramVec("ucad_closeout_seconds",
			"Latency of full-session close-out detection per closed session.", obs.LatencyBuckets, "tenant"),
		retrainSeconds: reg.HistogramVec("ucad_retrain_seconds",
			"Wall-clock duration of one background fine-tune round.",
			obs.ExponentialBuckets(0.01, 4, 8), "tenant"),
		scoreBatchSize: reg.HistogramVec("ucad_score_batch_size",
			"Jobs fused into one stacked forward pass per scoring-worker drain.",
			obs.ExponentialBuckets(1, 2, 8), "tenant"),
		alertsResolved: reg.CounterVec("ucad_alerts_resolved_total",
			"Expert verdicts applied to final alerts, by outcome.", "tenant", "verdict"),
		trainEpochLoss: reg.GaugeVec("ucad_train_epoch_loss",
			"Mean per-position loss of the most recent fine-tune epoch.", "tenant"),
		trainWindowsPerSec: reg.GaugeVec("ucad_train_windows_per_second",
			"Training throughput of the most recent fine-tune round.", "tenant"),
		trainEpochs: reg.CounterVec("ucad_train_epochs_total",
			"Fine-tune epochs completed since start.", "tenant"),
		trainEpochSeconds: reg.HistogramVec("ucad_train_epoch_seconds",
			"Wall-clock duration per fine-tune epoch.",
			obs.ExponentialBuckets(0.01, 4, 8), "tenant"),
		walAppends: reg.CounterVec("ucad_wal_appends_total",
			"Records appended to the write-ahead log.", "tenant"),
		walFsyncSeconds: reg.HistogramVec("ucad_wal_fsync_seconds",
			"Latency of one WAL fsync (every append under -fsync=always).", obs.LatencyBuckets, "tenant"),
		snapshotSeconds: reg.HistogramVec("ucad_snapshot_seconds",
			"Wall-clock duration of one open-session snapshot (capture, serialize, commit, prune).",
			obs.ExponentialBuckets(0.001, 4, 8), "tenant"),
		shardQueueWait: reg.HistogramVec("ucad_shard_queue_wait_seconds",
			"Time a scoring job waited in its shard's queue before a worker picked it up.",
			obs.LatencyBuckets, "tenant", "shard"),
		shardQueueDepth: reg.GaugeFuncVec("ucad_shard_queue_depth",
			"Scoring jobs queued but not yet picked up, per ingest shard.", "tenant", "shard"),
	}
	cfv := func(name, help string) { h.cfuncs[name] = reg.CounterFuncVec(name, help, "tenant") }
	gfv := func(name, help string) { h.gfuncs[name] = reg.GaugeFuncVec(name, help, "tenant") }
	cfv("ucad_events_accepted_total", "Events absorbed into open sessions.")
	cfv("ucad_events_rejected_total", "Events rejected with backpressure (scoring queue full).")
	cfv("ucad_ops_scored_total", "Operations scored by the worker pool.")
	cfv("ucad_ops_rejected_total", "Scoring jobs refused by a full queue.")
	cfv("ucad_flags_mid_session_total", "Operations flagged while their session was still open.")
	cfv("ucad_flags_late_total", "Flags that arrived after their session was finalized (dropped).")
	cfv("ucad_sessions_opened_total", "Sessions opened by the assembler.")
	cfv("ucad_sessions_closed_total", "Sessions closed by idle timeout or shutdown flush.")
	cfv("ucad_sessions_processed_total", "Closed sessions run through full-session detection.")
	cfv("ucad_sessions_flagged_total", "Closed sessions judged anomalous by close-out detection.")
	cfv("ucad_alerts_raised_total", "Alerts ever created (mid-session or at close-out).")
	cfv("ucad_alerts_evicted_total", "Resolved alerts evicted by the retention bound (max count or TTL).")
	cfv("ucad_retrains_total", "Background fine-tune rounds completed.")
	cfv("ucad_model_swaps_total", "Hot model replacements applied via the admin API.")
	cfv("ucad_checkpoint_errors_total", "Model checkpoints that failed to write or validate (rolled back).")
	cfv("ucad_feed_unknown_keys_total", "Ingested statements whose template is absent from the trained vocabulary (mapped to the reserved UNK key and always flagged).")
	cfv("ucad_feed_duplicate_events_total", "Redelivered events acknowledged without re-scoring (sequence number already covered by the open session).")
	cfv("ucad_score_cache_hits_total", "Similarity-row lookups served from the score cache (forward pass skipped).")
	cfv("ucad_score_cache_misses_total", "Similarity-row lookups that fell through to the scoring kernel.")
	cfv("ucad_score_cache_evictions_total", "Live score-cache entries displaced by LRU capacity pressure.")
	cfv("ucad_score_cache_warmed_total", "Score-cache rows pre-populated from restored sessions (restart warm-up or standby replay).")
	cfv("ucad_promotions_total", "Warm-standby promotions applied (replica flipped to serving).")
	gfv("ucad_sessions_open", "Currently open sessions.")
	gfv("ucad_alerts_open", "Alerts awaiting an expert verdict.")
	gfv("ucad_verified_pool", "Verified-normal sessions awaiting the next fine-tune round.")
	gfv("ucad_queue_depth", "Scoring jobs queued but not yet picked up.")
	gfv("ucad_scoring_workers", "Size of the scoring worker pool.")
	gfv("ucad_ingest_shards", "Number of ingest-plane shards (session partitions).")
	gfv("ucad_train_workers", "Data-parallel training workers used by fine-tune rounds.")
	gfv("ucad_uptime_seconds", "Seconds since the service was constructed.")
	gfv("ucad_wal_recovered_sessions", "Open sessions rebuilt from the WAL/snapshot at the last Restore.")
	gfv("ucad_wal_segment_bytes", "Size of the active WAL segment (rotates at the configured cap).")
	gfv("ucad_score_cache_entries", "Similarity rows currently resident in the score cache.")
	return h
}

// Tenant returns the per-tenant metrics view for id, creating its owned
// children on first use. The view binds to exactly one Service
// (NewService panics via the hub on a second bind, since the
// func-backed children would collide).
func (h *MetricsHub) Tenant(id string) *Metrics {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.tenants[id]; ok {
		return m
	}
	m := &Metrics{
		Registry:           h.Registry,
		hub:                h,
		tenant:             id,
		ingestSeconds:      h.ingestSeconds.With(id),
		queueWaitSeconds:   h.queueWaitSeconds.With(id),
		scoreSeconds:       h.scoreSeconds.With(id),
		closeoutSeconds:    h.closeoutSeconds.With(id),
		retrainSeconds:     h.retrainSeconds.With(id),
		scoreBatchSize:     h.scoreBatchSize.With(id),
		alertsResolved:     tenantCounterVec{cv: h.alertsResolved, tenant: id},
		trainEpochLoss:     h.trainEpochLoss.With(id),
		trainWindowsPerSec: h.trainWindowsPerSec.With(id),
		trainEpochs:        h.trainEpochs.With(id),
		trainEpochSeconds:  h.trainEpochSeconds.With(id),
		walAppends:         h.walAppends.With(id),
		walFsyncSeconds:    h.walFsyncSeconds.With(id),
		snapshotSeconds:    h.snapshotSeconds.With(id),
	}
	h.tenants[id] = m
	return m
}

// RemoveTenant drops every metric child labelled with the tenant id —
// owned and func-backed — releasing the tenant's cardinality. Call it
// only after the tenant's Service has stopped (a stopped Service no
// longer touches its instruments); the id becomes bindable again, so a
// recreated tenant starts from zero.
func (h *MetricsHub) RemoveTenant(id string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m, ok := h.tenants[id]; ok {
		for i := 0; i < m.shardCount; i++ {
			shard := strconv.Itoa(i)
			h.shardQueueWait.Remove(id, shard)
			h.shardQueueDepth.Remove(id, shard)
		}
	}
	delete(h.tenants, id)
	h.ingestSeconds.Remove(id)
	h.queueWaitSeconds.Remove(id)
	h.scoreSeconds.Remove(id)
	h.closeoutSeconds.Remove(id)
	h.retrainSeconds.Remove(id)
	h.scoreBatchSize.Remove(id)
	h.trainEpochLoss.Remove(id)
	h.trainWindowsPerSec.Remove(id)
	h.trainEpochs.Remove(id)
	h.trainEpochSeconds.Remove(id)
	h.walAppends.Remove(id)
	h.walFsyncSeconds.Remove(id)
	h.snapshotSeconds.Remove(id)
	for _, v := range h.cfuncs {
		v.Remove(id)
	}
	for _, v := range h.gfuncs {
		v.Remove(id)
	}
	for _, verdict := range []string{StatusFalseAlarm, StatusConfirmed} {
		h.alertsResolved.Remove(id, verdict)
	}
}

// tenantCounterVec narrows a (tenant, verdict) counter family to one
// tenant, so hot-path call sites keep the single-label With shape.
type tenantCounterVec struct {
	cv     *obs.CounterVec
	tenant string
}

// With returns the child counter for the verdict under the bound
// tenant.
func (t tenantCounterVec) With(values ...string) *obs.Counter {
	return t.cv.With(append([]string{t.tenant}, values...)...)
}

// Metrics is one tenant's view of the serving instrumentation: the
// owned children of the hub's tenant-labelled families, resolved once
// at wiring time so hot-path observes cost exactly what the unlabelled
// instruments did (a pointer dereference and an atomic add).
type Metrics struct {
	// Registry is the hub's shared registry (scrape it with
	// Registry.Handler(), already mounted at GET /metrics).
	Registry *obs.Registry

	hub    *MetricsHub
	tenant string
	// shardCount records how many {tenant, shard} children bind created,
	// so RemoveTenant can drop exactly those.
	shardCount int

	// Stage-latency histograms (seconds).
	ingestSeconds    *obs.Histogram
	queueWaitSeconds *obs.Histogram
	scoreSeconds     *obs.Histogram
	closeoutSeconds  *obs.Histogram
	retrainSeconds   *obs.Histogram
	// scoreBatchSize distributes jobs drained per worker pass.
	scoreBatchSize *obs.Histogram

	// alertsResolved counts expert verdicts by outcome.
	alertsResolved tenantCounterVec

	// Training instrumentation, fed from detect.Online's hooks.
	trainEpochLoss     *obs.Gauge
	trainWindowsPerSec *obs.Gauge
	trainEpochs        *obs.Counter
	// trainEpochSeconds distributes per-epoch fine-tune wall time — the
	// direct readout of data-parallel training speedup in production.
	trainEpochSeconds *obs.Histogram

	// Durability instrumentation (all zero when Config.Durability is
	// off). walAppends/walFsyncSeconds are fed by internal/wal's hooks;
	// snapshotSeconds times SnapshotNow end to end.
	walAppends      *obs.Counter
	walFsyncSeconds *obs.Histogram
	snapshotSeconds *obs.Histogram
}

// NewMetrics returns the default-tenant view of a fresh hub on reg (nil
// means a private registry) — the single-tenant wiring path, unchanged
// for existing callers. Multi-tenant deployments construct one
// MetricsHub and call Tenant per tenant instead.
func NewMetrics(reg *obs.Registry) *Metrics {
	return NewMetricsHub(reg).Tenant(DefaultTenant)
}

// TenantID returns the tenant label this view exports under.
func (m *Metrics) TenantID() string { return m.tenant }

// bind attaches the func-backed children that read the service's live
// counters at scrape time — the single-source-of-truth bridge between
// /stats and /metrics, one labelled child per (family, tenant).
func (m *Metrics) bind(s *Service) {
	h, id := m.hub, m.tenant
	cf := func(name string, fn func() int64) { h.cfuncs[name].Bind(fn, id) }
	gf := func(name string, fn func() float64) { h.gfuncs[name].Bind(fn, id) }
	cf("ucad_events_accepted_total", s.accepted.Load)
	cf("ucad_events_rejected_total", s.rejected.Load)
	cf("ucad_ops_scored_total",
		func() int64 { scored, _ := s.engine.Counts(); return scored })
	cf("ucad_ops_rejected_total",
		func() int64 { _, rejected := s.engine.Counts(); return rejected })
	cf("ucad_flags_mid_session_total", s.midFlags.Load)
	cf("ucad_flags_late_total", s.lateFlags.Load)
	cf("ucad_sessions_opened_total",
		func() int64 { opened, _ := s.asmCounts(); return opened })
	cf("ucad_sessions_closed_total",
		func() int64 { _, closed := s.asmCounts(); return closed })
	cf("ucad_sessions_processed_total",
		func() int64 { processed, _ := s.online.Stats(); return int64(processed) })
	cf("ucad_sessions_flagged_total",
		func() int64 { _, flagged := s.online.Stats(); return int64(flagged) })
	cf("ucad_alerts_raised_total", s.alerts.raisedCount)
	cf("ucad_alerts_evicted_total", s.alerts.evictedCount)
	cf("ucad_retrains_total", s.retrains.Load)
	cf("ucad_model_swaps_total", s.modelSwaps.Load)
	cf("ucad_checkpoint_errors_total", s.ckptErrors.Load)
	cf("ucad_feed_unknown_keys_total", s.unknownKeys.Load)
	cf("ucad_feed_duplicate_events_total", s.dupEvents.Load)
	// Score-cache families read through the online loop, which owns the
	// cache hand-off across hot swaps (counters stay monotonic: SwapModel
	// carries the cache object onto the replacement model).
	cacheStats := func() scorecache.Stats {
		if c := s.online.Detector().Model.ScoreCache(); c != nil {
			return c.Stats()
		}
		return scorecache.Stats{}
	}
	cf("ucad_score_cache_hits_total",
		func() int64 { return int64(cacheStats().Hits) })
	cf("ucad_score_cache_misses_total",
		func() int64 { return int64(cacheStats().Misses) })
	cf("ucad_score_cache_evictions_total",
		func() int64 { return int64(cacheStats().Evictions) })
	cf("ucad_score_cache_warmed_total", s.cacheWarmed.Load)
	cf("ucad_promotions_total", s.promotions.Load)
	gf("ucad_sessions_open", func() float64 { return float64(s.openCount()) })
	gf("ucad_alerts_open", func() float64 { return float64(s.alerts.openCount()) })
	gf("ucad_verified_pool",
		func() float64 { return float64(s.online.VerifiedCount()) })
	gf("ucad_queue_depth",
		func() float64 { return float64(s.engine.QueueDepth()) })
	gf("ucad_scoring_workers", func() float64 { return float64(s.cfg.Workers) })
	gf("ucad_ingest_shards", func() float64 { return float64(len(s.shards)) })
	gf("ucad_train_workers",
		func() float64 { return float64(s.model.Load().ucad.Model.Config().EffectiveTrainWorkers()) })
	gf("ucad_uptime_seconds",
		func() float64 { return s.cfg.Clock().Sub(s.start).Seconds() })
	gf("ucad_wal_recovered_sessions",
		func() float64 { return float64(s.recovered.Load()) })
	gf("ucad_score_cache_entries",
		func() float64 { return float64(cacheStats().Entries) })
	gf("ucad_wal_segment_bytes",
		func() float64 {
			if !s.ready.Load() {
				return 0
			}
			var n int64
			for _, sh := range s.shards {
				n += sh.store.SegmentBytes()
			}
			return float64(n)
		})
	// Per-shard children, labelled {tenant, shard}.
	m.shardCount = len(s.shards)
	waits := make([]*obs.Histogram, len(s.shards))
	for i := range s.shards {
		i := i
		shard := strconv.Itoa(i)
		waits[i] = h.shardQueueWait.With(id, shard)
		h.shardQueueDepth.Bind(
			func() float64 { return float64(s.engine.ShardQueueDepth(i)) }, id, shard)
	}
	s.engine.instrumentShards(waits)
}
