package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/detect"
	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/wal"
)

// RetrainGate schedules background fine-tune rounds across services
// sharing one training budget (multi-tenant deployments install a
// fair gate so a busy tenant cannot starve its siblings).
type RetrainGate interface {
	// Acquire blocks until the caller may start a fine-tune round; the
	// returned release must be called when the round ends.
	Acquire(tenant string) func()
	// Position reports how many rounds are queued ahead of tenant
	// (0 means idle or running now).
	Position(tenant string) int
}

// Config tunes the serving layer.
type Config struct {
	// Shards is the number of ingest-plane partitions: sessions are
	// routed to a shard by consistent hash of their client id, and each
	// shard owns its session map, its WAL stream and its scoring queue
	// (0 means GOMAXPROCS).
	Shards int
	// Workers is the scoring worker-pool size.
	Workers int
	// QueueSize bounds the total scoring queue capacity, split across
	// shard queues; a full shard queue rejects events with ErrBusy
	// (backpressure).
	QueueSize int
	// Batch is the micro-batch size a worker drains per pass.
	Batch int
	// IdleTimeout closes a client's session after this much inactivity.
	IdleTimeout time.Duration
	// SweepEvery is the close-out sweep period (0 disables the
	// background sweeper; CloseIdleNow still works).
	SweepEvery time.Duration
	// RetrainAfter triggers a background fine-tune once the verified
	// pool reaches this many sessions (0 disables auto-retraining).
	RetrainAfter int
	// RetrainEpochs is the fine-tune epoch count per retrain round.
	RetrainEpochs int
	// RetrainGate, when non-nil, gates background fine-tune rounds (see
	// RetrainGate); nil means rounds start immediately.
	RetrainGate RetrainGate
	// MaxResolvedAlerts bounds how many resolved alerts the in-memory
	// store retains (FIFO eviction; 0 means the default, negative means
	// unbounded). Open alerts are never evicted.
	MaxResolvedAlerts int
	// ResolvedAlertTTL ages resolved alerts out of the store (0 means
	// the default, negative disables the TTL).
	ResolvedAlertTTL time.Duration
	// Durability, when non-nil, makes the service crash-safe: accepted
	// events are WAL-logged before ack, open sessions are snapshotted,
	// and Restore rebuilds them after a restart (see DurabilityConfig).
	// Until Restore — or, for a warm standby built over its synced
	// directory, PromoteToServing (see replica.go) — takes the service
	// live, Ingest rejects with ErrNotReady.
	Durability *DurabilityConfig
	// Metrics receives the serving instrumentation; nil creates a
	// private registry (reachable via Service.Metrics). A Metrics value
	// binds to exactly one Service.
	Metrics *Metrics
	// Clock supplies the wall clock (nil means time.Now); tests inject
	// a fake clock to drive idle close-out deterministically.
	Clock func() time.Time
}

// DefaultConfig returns serving defaults sized for a single node.
func DefaultConfig() Config {
	return Config{
		Workers:           4,
		QueueSize:         1024,
		Batch:             16,
		IdleTimeout:       10 * time.Minute,
		SweepEvery:        15 * time.Second,
		RetrainEpochs:     2,
		MaxResolvedAlerts: 4096,
		ResolvedAlertTTL:  24 * time.Hour,
	}
}

// modelBundle is the serving model plus the scoring parameters derived
// from it, swapped as one unit so a hot model replacement can never be
// observed half-applied on the ingest path.
type modelBundle struct {
	ucad       *core.UCAD
	window     int
	minContext int
	topP       int
}

// Service is the full online detection loop of Figure 5 as a running
// system: events stream in, sessions assemble per client on the shard
// the client hashes to, every operation is scored concurrently against
// the trained model, flagged operations raise alerts mid-session,
// closed sessions feed the verified-pool/retrain cycle via
// detect.Online.
type Service struct {
	cfg     Config
	online  *detect.Online
	shards  []*shard
	engine  *Engine
	alerts  *alertStore
	metrics *Metrics
	start   time.Time

	// model is the active model bundle; read per ingest, replaced
	// atomically by SwapModel.
	model atomic.Pointer[modelBundle]

	accepted    atomic.Int64
	rejected    atomic.Int64
	midFlags    atomic.Int64
	lateFlags   atomic.Int64
	retrains    atomic.Int64
	unknownKeys atomic.Int64
	dupEvents   atomic.Int64
	modelSwaps  atomic.Int64

	stopped    atomic.Bool
	retraining atomic.Bool
	retrainWG  sync.WaitGroup

	// cacheWarmed counts score-cache rows pre-populated from restored
	// sessions (WarmScoreCache); promotions counts PromoteToServing flips
	// (0 or 1 per process today).
	cacheWarmed atomic.Int64
	promotions  atomic.Int64

	sweepStop chan struct{}
	sweepDone chan struct{}
	startOnce sync.Once

	// Durability state (zero without Config.Durability; see durable.go).
	// ready publishes the shard stores and ckpts (goLive sets it, at the
	// end of Restore or PromoteToServing): a durability-configured
	// service rejects ingest with ErrNotReady until then, so no accepted
	// event can bypass the log — and "durable, not ready" is all a warm
	// standby is (IsReplica).
	ready       atomic.Bool
	restoreOnce atomic.Bool
	ckpts       *wal.Checkpoints
	recovered   atomic.Int64
	ckptErrors  atomic.Int64
	snapStop    chan struct{}
	snapDone    chan struct{}
}

// NewService wires a trained detector into a serving loop. The scoring
// workers start immediately; call Start to launch the background
// close-out sweeper and Stop to flush and shut down.
func NewService(u *core.UCAD, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = def.QueueSize
	}
	if cfg.Batch <= 0 {
		cfg.Batch = def.Batch
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = def.IdleTimeout
	}
	if cfg.RetrainEpochs <= 0 {
		cfg.RetrainEpochs = def.RetrainEpochs
	}
	if cfg.MaxResolvedAlerts == 0 {
		cfg.MaxResolvedAlerts = def.MaxResolvedAlerts
	}
	if cfg.ResolvedAlertTTL == 0 {
		cfg.ResolvedAlertTTL = def.ResolvedAlertTTL
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	mcfg := u.Model.Config()
	s := &Service{
		cfg:     cfg,
		online:  detect.NewOnline(u),
		alerts:  newAlertStore(cfg.Clock, cfg.MaxResolvedAlerts, cfg.ResolvedAlertTTL),
		metrics: cfg.Metrics,
		start:   cfg.Clock(),
	}
	s.model.Store(&modelBundle{
		ucad:       u,
		window:     mcfg.Window,
		minContext: mcfg.MinContext,
		topP:       mcfg.TopP,
	})
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{idx: i, asm: NewAssembler(cfg.IdleTimeout, cfg.Clock)}
	}
	s.engine = NewEngine(s.online, cfg.Shards, cfg.Workers, cfg.QueueSize, cfg.Batch, s.onResult)
	m := s.metrics
	s.engine.instrument(m.queueWaitSeconds, m.scoreSeconds, m.scoreBatchSize)
	s.online.SetTrainHooks(detect.TrainHooks{
		Epoch: func(epoch int, loss float64, took time.Duration) {
			m.trainEpochLoss.Set(loss)
			m.trainEpochs.Inc()
			m.trainEpochSeconds.Observe(took.Seconds())
		},
		Done: func(st detect.RetrainStats) {
			m.retrainSeconds.Observe(st.Duration.Seconds())
			m.trainWindowsPerSec.Set(st.WindowsPerSecond())
		},
	})
	m.bind(s)
	return s
}

// Start launches the background idle-session sweeper (no-op when
// Config.SweepEvery is zero).
func (s *Service) Start() {
	s.startOnce.Do(func() {
		if s.cfg.SweepEvery <= 0 {
			return
		}
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go func() {
			defer close(s.sweepDone)
			t := time.NewTicker(s.cfg.SweepEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.CloseIdleNow()
				case <-s.sweepStop:
					return
				}
			}
		}()
	})
}

// Stop flushes every open session through close-out detection and shuts
// the scoring pool down. Quiesce ingestion (shut the HTTP server down)
// before calling it; Ingest fails with ErrStopped afterwards. With
// durability enabled the flushed close-outs are WAL-logged and the logs
// are sealed, so a restart restores an empty assembler; use Close to
// preserve open sessions across a deploy instead.
func (s *Service) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.stopBackground()
	s.engine.Drain()
	s.finalize(s.closeAllLogged(false))
	s.engine.Stop()
	s.retrainWG.Wait()
	s.sealAndCloseStore()
}

// Close is the durable graceful shutdown: ingestion must already be
// quiesced; Close stops the background loops, drains the scoring queue
// (bounded by ctx), runs close-out detection on sessions already idle
// past the timeout, then snapshots the still-open sessions shard by
// shard, appends each stream's clean-seal record and closes the logs —
// a following Restore on the same directory brings every open session
// back exactly where it was. Without durability it behaves like Stop
// (nothing would preserve the sessions, so they are flushed through
// detection instead).
//
// A durable service that never went live — a warm standby, or a failed
// Restore — acknowledged nothing: its sessions are a replay of files
// that are still on disk, and on a standby they are the primary's, not
// ours to judge. Close only stops the scoring pool; no verdicts, no
// verified-pool feed, no fine-tune round.
func (s *Service) Close(ctx context.Context) error {
	if s.cfg.Durability == nil {
		s.Stop()
		return nil
	}
	if !s.stopped.CompareAndSwap(false, true) {
		return nil
	}
	s.stopBackground()
	if !s.ready.Load() {
		s.engine.Stop()
		return nil
	}
	var err error
	drained := make(chan struct{})
	go func() { s.engine.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err() // proceed: shutdown must still seal the logs
	}
	s.finalize(s.closeAllLogged(true))
	s.engine.Stop()
	s.retrainWG.Wait()
	if serr := s.sealAndCloseStore(); err == nil {
		err = serr
	}
	return err
}

// stopBackground stops the idle sweeper and the snapshot loop.
func (s *Service) stopBackground() {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
	}
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
}

// Ingest absorbs one event: IngestBatch with a batch of one.
func (s *Service) Ingest(ev Event) error {
	var err [1]error
	s.IngestBatch([]Event{ev}, err[:])
	return err[0]
}

// batch is a durable request's state between its per-event steps and
// its commit (see commitBatch).
type batch struct {
	// touched marks, by shard index, the streams the request must commit
	// before it acknowledges anything on them: a record was written, or a
	// redelivery matched an original whose own commit may still be in
	// flight on another request.
	touched []bool
	// pend lists, in submission order, the events that passed their
	// per-event steps and await their stream's commit.
	pend []pendingEvent
}

type pendingEvent struct {
	i         int // index within the batch
	sh        *shard
	client    string
	sessionID string
	pos       int
	// epoch/seq are the event's dedupe coordinates: a rollback undoes
	// the mark they set along with the operation.
	epoch, seq int64
	dup        bool
}

// IngestBatch absorbs the events of one request in order and leaves
// event i's outcome in errs[i] (nil: accepted), which must be as long
// as evs. Each statement is tokenized with the trained vocabulary,
// appended to the client's open session on the shard the client hashes
// to, and queued for incremental scoring once the session has
// MinContext history. A full shard scoring queue rejects the event with
// ErrBusy — the operation is rolled back out of the session, dedupe
// mark included, so a client retry is not a duplicate. A rejection never
// shadows another client's events, nor — when it is permanent
// (ErrInvalid) — its own client's; a retryable one rejects the rest of
// that client's events in the request the same way, so the sender's
// resend finds them in order, with no later event absorbed past the gap.
//
// With durability enabled each event's record is written to its shard's
// own WAL stream as the event is absorbed, and the request is the
// commit group: once every event has been attempted, each touched
// stream is committed once (one fsync per stream under SyncAlways) and
// only then does IngestBatch return — the write-ahead contract: nothing
// is acknowledged that a crash could forget. Scoring may start before
// the commit; a verdict is advisory and in memory, only the
// acknowledgement waits. A stream whose commit fails rejects every
// event of the request on it, rolled back like a failed WAL write.
//
// A statement whose template is absent from the trained vocabulary maps
// to the reserved UNK key (sqlnorm.UnknownKey): it is still assembled
// and scored — the model ranks UNK last, so such operations always flag
// — and counted in ucad_feed_unknown_keys_total rather than rejected.
// An event whose (Epoch, Seq) the open session already covers is a
// redelivery: it is acknowledged without re-appending, re-logging or re-scoring
// (counted in ucad_feed_duplicate_events_total).
func (s *Service) IngestBatch(evs []Event, errs []error) {
	var b *batch
	if s.cfg.Durability != nil {
		b = &batch{touched: make([]bool, len(s.shards)), pend: make([]pendingEvent, 0, len(evs))}
	}
	var refused map[string]error // clients with a retryable rejection in this request
	for i, ev := range evs {
		if refused != nil {
			if err, ok := refused[ev.Client()]; ok {
				s.rejected.Add(1)
				errs[i] = err
				continue
			}
		}
		errs[i] = s.ingestEvent(i, ev, b)
		if errs[i] != nil && errs[i] != ErrInvalid { // ingestEvent returns it bare
			if refused == nil {
				refused = make(map[string]error)
			}
			refused[ev.Client()] = errs[i]
		}
	}
	if b != nil {
		s.commitBatch(b, errs)
	}
}

// ingestEvent runs one event's steps: tokenize, assemble (and write the
// WAL record, under the shard's durMu), enqueue for scoring. Without
// durability (b nil) a nil return is the acceptance; with it the event
// joins b.pend and commitBatch decides.
func (s *Service) ingestEvent(i int, ev Event, b *batch) error {
	if s.stopped.Load() {
		return ErrStopped
	}
	if ev.SQL == "" || ev.Seq > 0 && ev.Epoch <= 0 {
		return ErrInvalid
	}
	if b != nil && !s.ready.Load() {
		return ErrNotReady
	}
	t := obs.StartTimer(s.metrics.ingestSeconds)
	defer t.Stop()
	mb := s.model.Load()
	key := mb.ucad.Vocab.Key(ev.SQL)
	if key == sqlnorm.UnknownKey {
		s.unknownKeys.Add(1)
	}
	client := ev.Client()
	sh := s.shardFor(client)
	var ap Appended
	if b != nil {
		var err error
		if ap, err = s.ingestDurable(sh, ev, key, mb.window); err != nil {
			s.rejected.Add(1)
			return err
		}
		b.touched[sh.idx] = true
	} else {
		ap = sh.asm.Append(ev, key, mb.window+1)
	}
	if ap.Dup {
		s.dupEvents.Add(1)
	} else if ap.Pos >= mb.minContext {
		job := Job{
			Client:    client,
			User:      ev.User,
			SessionID: ap.SessionID,
			Keys:      ap.Keys,
			Pos:       ap.Pos,
			SQL:       ev.SQL,
		}
		if err := s.engine.Submit(sh.idx, job); err != nil {
			s.rollbackLogged(sh, client, ap.SessionID, ap.Pos, ev.Epoch, ev.Seq)
			s.rejected.Add(1)
			return err
		}
	}
	if b != nil {
		b.pend = append(b.pend, pendingEvent{
			i: i, sh: sh, client: client, sessionID: ap.SessionID, pos: ap.Pos,
			epoch: ev.Epoch, seq: ev.Seq, dup: ap.Dup,
		})
	} else if !ap.Dup {
		s.accepted.Add(1)
	}
	return nil
}

// onResult runs on scoring workers: ranks beyond top-p raise (or
// extend) the session's mid-session alert.
func (s *Service) onResult(r Result) {
	if r.Rank <= s.model.Load().topP {
		return
	}
	s.midFlags.Add(1)
	if !s.alerts.flag(r, r.User) {
		s.lateFlags.Add(1)
	}
}

// CloseIdleNow sweeps idle sessions through close-out detection
// immediately and returns how many closed. It also ages resolved alerts
// past their retention TTL out of the store.
func (s *Service) CloseIdleNow() int {
	closed := s.closeAllLogged(true)
	s.finalize(closed)
	s.alerts.evictExpired()
	return len(closed)
}

// finalize runs full-session detection on closed sessions — the
// authoritative verdict of Figure 5: normal sessions join the verified
// pool, anomalous ones become (or complete) pending alerts.
func (s *Service) finalize(closed []Closed) {
	for _, c := range closed {
		t := obs.StartTimer(s.metrics.closeoutSeconds)
		da := s.online.Process(c.Session)
		t.Stop()
		stmts := make([]string, len(c.Session.Ops))
		for i := range c.Session.Ops {
			stmts[i] = c.Session.Ops[i].SQL
		}
		s.alerts.finalize(c.Session.ID, c.Client, c.Session.User, stmts, da)
	}
	s.maybeRetrain()
}

// maybeRetrain kicks one background fine-tune round when the verified
// pool is large enough; scoring keeps running and blocks only for the
// model-swap critical section inside detect.Online. A configured
// RetrainGate is acquired first, so overlapping tenant rounds share the
// training workers fairly instead of piling up.
func (s *Service) maybeRetrain() {
	if s.cfg.RetrainAfter <= 0 || s.online.VerifiedCount() < s.cfg.RetrainAfter {
		return
	}
	if !s.retraining.CompareAndSwap(false, true) {
		return
	}
	s.retrainWG.Add(1)
	go func() {
		defer s.retrainWG.Done()
		defer s.retraining.Store(false)
		if g := s.cfg.RetrainGate; g != nil {
			release := g.Acquire(s.metrics.TenantID())
			defer release()
		}
		if s.online.Retrain(s.cfg.RetrainEpochs) > 0 {
			s.retrains.Add(1)
			s.checkpointModel()
		}
	}()
}

// SwapModel hot-replaces the serving model without draining the
// service: a brief stop-the-world barrier over every ingest shard swaps
// the detector inside detect.Online (under its model write-lock),
// publishes the new scoring parameters, and re-tokenizes every open
// session with the new vocabulary so the key windows handed to scorers
// stay consistent with the model ranking them. Scoring jobs already in
// flight complete against whichever model version their batch locks —
// at most one micro-batch per worker spans the swap. The caller has
// already validated that the model loads.
func (s *Service) SwapModel(u *core.UCAD) error {
	if s.stopped.Load() {
		return ErrStopped
	}
	mcfg := u.Model.Config()
	for _, sh := range s.shards {
		sh.durMu.Lock()
	}
	s.online.SwapModel(u)
	s.model.Store(&modelBundle{
		ucad:       u,
		window:     mcfg.Window,
		minContext: mcfg.MinContext,
		topP:       mcfg.TopP,
	})
	for _, sh := range s.shards {
		sh.asm.Rekey(u.Vocab.Key)
	}
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].durMu.Unlock()
	}
	s.modelSwaps.Add(1)
	return nil
}

// Resolve applies an expert verdict to a final alert: false alarms
// rejoin the training pool (§5.2), confirmed anomalies never do.
func (s *Service) Resolve(id int64, verdict string) error {
	var status string
	switch verdict {
	case StatusFalseAlarm, "false-alarm":
		status = StatusFalseAlarm
	case StatusConfirmed:
		status = StatusConfirmed
	default:
		return ErrInvalid
	}
	da, err := s.alerts.resolve(id, status)
	if err != nil {
		return err
	}
	s.metrics.alertsResolved.With(status).Inc()
	if da != nil && status == StatusFalseAlarm {
		s.online.ResolveFalseAlarm(da)
	}
	s.maybeRetrain()
	return nil
}

// Alerts lists alerts, optionally filtered by status.
func (s *Service) Alerts(status string) []Alert { return s.alerts.list(status) }

// Drain blocks until every accepted scoring job has completed (test and
// benchmark aid; quiesce ingestion first).
func (s *Service) Drain() { s.engine.Drain() }

// Stats is a point-in-time snapshot of the serving counters. Every
// field reads the same underlying counter the /metrics exposition
// exports, so the two views cannot disagree.
type Stats struct {
	UptimeSeconds     float64 `json:"uptime_seconds"`
	EventsAccepted    int64   `json:"events_accepted"`
	EventsRejected    int64   `json:"events_rejected"`
	OpsScored         int64   `json:"ops_scored"`
	OpsRejected       int64   `json:"ops_rejected"`
	MidSessionFlags   int64   `json:"mid_session_flags"`
	SessionsOpen      int     `json:"sessions_open"`
	SessionsClosed    int64   `json:"sessions_closed"`
	SessionsProcessed int     `json:"sessions_processed"`
	SessionsFlagged   int     `json:"sessions_flagged"`
	AlertsOpen        int     `json:"alerts_open"`
	AlertsRaised      int64   `json:"alerts_raised"`
	AlertsEvicted     int64   `json:"alerts_evicted"`
	VerifiedPool      int     `json:"verified_pool"`
	Retrains          int64   `json:"retrains"`
	QueueDepth        int     `json:"queue_depth"`
	Workers           int     `json:"workers"`
	Shards            int     `json:"shards"`
	ModelSwaps        int64   `json:"model_swaps"`
	RecoveredSessions int64   `json:"recovered_sessions"`
	UnknownKeys       int64   `json:"unknown_keys"`
	DuplicateEvents   int64   `json:"duplicate_events"`
	Replica           bool    `json:"replica,omitempty"`
	Promotions        int64   `json:"promotions,omitempty"`

	// Score-cache counters (all zero when no cache is attached). HitRate
	// is hits/(hits+misses) over the service lifetime — the cache object
	// survives hot model swaps, so the ratio never resets mid-flight.
	ScoreCacheHits      int64   `json:"score_cache_hits"`
	ScoreCacheMisses    int64   `json:"score_cache_misses"`
	ScoreCacheEvictions int64   `json:"score_cache_evictions"`
	ScoreCacheEntries   int64   `json:"score_cache_entries"`
	ScoreCacheHitRate   float64 `json:"score_cache_hit_rate"`
	// ScoreCacheWarmed counts rows pre-populated from open sessions by
	// standby replay (see WarmScoreCache).
	ScoreCacheWarmed int64 `json:"score_cache_warmed"`
}

// Stats snapshots the serving counters.
func (s *Service) Stats() Stats {
	scored, opsRejected := s.engine.Counts()
	_, closed := s.asmCounts()
	processed, flagged := s.online.Stats()
	var cs scorecache.Stats
	if c := s.online.Detector().Model.ScoreCache(); c != nil {
		cs = c.Stats()
	}
	return Stats{
		UptimeSeconds:     s.cfg.Clock().Sub(s.start).Seconds(),
		EventsAccepted:    s.accepted.Load(),
		EventsRejected:    s.rejected.Load(),
		OpsScored:         scored,
		OpsRejected:       opsRejected,
		MidSessionFlags:   s.midFlags.Load(),
		SessionsOpen:      s.openCount(),
		SessionsClosed:    closed,
		SessionsProcessed: processed,
		SessionsFlagged:   flagged,
		AlertsOpen:        s.alerts.openCount(),
		AlertsRaised:      s.alerts.raisedCount(),
		AlertsEvicted:     s.alerts.evictedCount(),
		VerifiedPool:      s.online.VerifiedCount(),
		Retrains:          s.retrains.Load(),
		QueueDepth:        s.engine.QueueDepth(),
		Workers:           s.cfg.Workers,
		Shards:            len(s.shards),
		ModelSwaps:        s.modelSwaps.Load(),
		RecoveredSessions: s.recovered.Load(),
		UnknownKeys:       s.unknownKeys.Load(),
		DuplicateEvents:   s.dupEvents.Load(),
		Replica:           s.IsReplica(),
		Promotions:        s.promotions.Load(),

		ScoreCacheHits:      int64(cs.Hits),
		ScoreCacheMisses:    int64(cs.Misses),
		ScoreCacheEvictions: int64(cs.Evictions),
		ScoreCacheEntries:   cs.Entries,
		ScoreCacheHitRate:   cs.HitRate(),
		ScoreCacheWarmed:    s.cacheWarmed.Load(),
	}
}
