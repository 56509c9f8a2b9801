package feed

import "github.com/ucad/ucad/internal/obs"

// Metrics carries the feed subsystem's metric families, each
// partitioned by a "source" label so one ucad-feed process tailing
// several logs exports per-source series. Source declares the families
// and resolves a source's children in one step.
type Metrics struct {
	// Registry carries the families; expose it with Registry.Handler().
	Registry *obs.Registry
}

// NewMetrics returns the feed metrics over reg (nil means a fresh
// private registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{Registry: reg}
}

// Source carves the per-source child view for name, declaring the feed
// families on first use.
func (m *Metrics) Source(name string) *SourceMetrics {
	reg := m.Registry
	counter := func(family, help string) *obs.Counter {
		return reg.CounterVec(family, help, "source").With(name)
	}
	return &SourceMetrics{
		linesRead: counter("ucad_feed_lines_read_total",
			"Lines consumed from the source (including unparsable ones)."),
		parseErrors: counter("ucad_feed_parse_errors_total",
			"Lines that failed to parse as audit records (skipped)."),
		lagBytes: reg.GaugeVec("ucad_feed_lag_bytes",
			"Bytes in the live log file not yet returned to the feeder.", "source").With(name),
		deliveredEvents: counter("ucad_feed_delivered_events_total",
			"Events acknowledged by the serving layer."),
		droppedEvents: counter("ucad_feed_dropped_events_total",
			"Events dropped as permanently undeliverable (rejected as invalid by the server, or oversized)."),
		deliveryRetries: counter("ucad_feed_delivery_retries_total",
			"Delivery attempts that were retried after backpressure or transport errors."),
		checkpoints: counter("ucad_feed_checkpoints_total",
			"Resume checkpoints committed after acknowledged batches."),
		deliverySeconds: reg.HistogramVec("ucad_feed_delivery_seconds",
			"Latency of delivering one batch to the serving layer (including retries).",
			obs.LatencyBuckets, "source").With(name),
		rotationGaps: counter("ucad_feed_rotation_gaps_total",
			"Resume or rotation points where log data may have been skipped (multiple rotations between polls, or a checkpointed file no longer available)."),
		failovers: counter("ucad_feed_failovers_total",
			"Deliveries acknowledged by a different server than the previous one (URL-list failover)."),
		rewinds: counter("ucad_feed_rewinds_total",
			"Failover rewinds: the feeder re-read from a retained older position to redeliver the suffix a new server may be missing."),
	}
}

// SourceMetrics is one source's bound instruments. The nil view is
// valid and drops every observation, so instrumentation is optional at
// every call site.
type SourceMetrics struct {
	linesRead       *obs.Counter
	parseErrors     *obs.Counter
	lagBytes        *obs.Gauge
	deliveredEvents *obs.Counter
	droppedEvents   *obs.Counter
	deliveryRetries *obs.Counter
	checkpoints     *obs.Counter
	deliverySeconds *obs.Histogram
	rotationGaps    *obs.Counter
	failovers       *obs.Counter
	rewinds         *obs.Counter
}

func (s *SourceMetrics) lineRead() {
	if s != nil {
		s.linesRead.Inc()
	}
}

func (s *SourceMetrics) parseError() {
	if s != nil {
		s.parseErrors.Inc()
	}
}

func (s *SourceMetrics) setLagBytes(v float64) {
	if s != nil {
		s.lagBytes.Set(v)
	}
}

func (s *SourceMetrics) delivered(n int) {
	if s != nil {
		s.deliveredEvents.Add(int64(n))
	}
}

func (s *SourceMetrics) dropped(n int) {
	if s != nil && n > 0 {
		s.droppedEvents.Add(int64(n))
	}
}

func (s *SourceMetrics) rotationGap() {
	if s != nil {
		s.rotationGaps.Inc()
	}
}

func (s *SourceMetrics) retried() {
	if s != nil {
		s.deliveryRetries.Inc()
	}
}

func (s *SourceMetrics) checkpointed() {
	if s != nil {
		s.checkpoints.Inc()
	}
}

func (s *SourceMetrics) observeDelivery(seconds float64) {
	if s != nil {
		s.deliverySeconds.Observe(seconds)
	}
}

func (s *SourceMetrics) failedOver() {
	if s != nil {
		s.failovers.Inc()
	}
}

func (s *SourceMetrics) rewound() {
	if s != nil {
		s.rewinds.Inc()
	}
}
