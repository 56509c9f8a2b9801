package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
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
	// private registry. A Metrics value binds to exactly one Service.
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
		IdleTimeout:       session.IdleGap,
		SweepEvery:        15 * time.Second,
		RetrainEpochs:     2,
		MaxResolvedAlerts: 4096,
		ResolvedAlertTTL:  24 * time.Hour,
	}
}

// modelBundle is the serving model plus the scoring parameters derived
// from it, swapped as one unit so a model change can never be observed
// half-applied on the ingest path. The model in it is never changed: a
// fine-tune round installs a copy.
type modelBundle struct {
	ucad       *core.UCAD
	window     int
	minContext int
	topP       int
	// cache is the score cache the model serves with once installed.
	// install carries the same object onto the replacement, so a reader
	// of the outgoing bundle (whose model it has already detached) still
	// sees live counters.
	cache *scorecache.Cache
}

func newBundle(u *core.UCAD) *modelBundle {
	mcfg := u.Model.Config()
	return &modelBundle{
		ucad:       u,
		window:     mcfg.Window,
		minContext: mcfg.MinContext,
		topP:       mcfg.TopP,
		cache:      u.Model.ScoreCache(),
	}
}

// Service is the online detection loop of Figure 5 as a running
// system: events stream in, sessions assemble per client on the shard
// the client hashes to, every operation is scored concurrently against
// the trained model, flagged operations raise alerts mid-session, and
// closed sessions get their full-session verdict: normal ones (and
// false alarms, once an expert says so) join the verified pool that the
// next fine-tune round absorbs.
type Service struct {
	cfg     Config
	shards  []*shard
	engine  *Engine
	alerts  *alertStore
	metrics *Metrics
	start   time.Time

	// model is the serving model bundle — the one record of which model
	// serves: read per ingest, per scoring batch and per close-out
	// verdict, replaced atomically by install.
	model atomic.Pointer[modelBundle]

	accepted    atomic.Int64
	rejected    atomic.Int64
	midFlags    atomic.Int64
	lateFlags   atomic.Int64
	retrains    atomic.Int64
	unknownKeys atomic.Int64
	dupEvents   atomic.Int64
	modelSwaps  atomic.Int64
	processed   atomic.Int64 // sessions given a close-out verdict
	flagged     atomic.Int64 // ... of which anomalous

	// verified is the pool of verified-normal sessions the next
	// fine-tune round absorbs.
	verifiedMu sync.Mutex
	verified   []*session.Session

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
		cfg.Metrics = NewMetrics()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	s := &Service{
		cfg:     cfg,
		alerts:  newAlertStore(cfg.Clock, cfg.MaxResolvedAlerts, cfg.ResolvedAlertTTL),
		metrics: cfg.Metrics,
		start:   cfg.Clock(),
	}
	s.model.Store(newBundle(u))
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{idx: i, asm: NewAssembler(cfg.IdleTimeout, cfg.Clock)}
	}
	s.engine = NewEngine(servingRanker{s}, cfg.Shards, cfg.Workers, cfg.QueueSize, cfg.Batch, s.onResult)
	m := s.metrics
	s.engine.instrument(m.queueWaitSeconds, m.scoreSeconds, m.scoreBatchSize)
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

// ingestEvent runs one event's steps: assemble (tokenize, append and
// write the WAL record, under the shard's mutex), enqueue for scoring.
// Without durability (b nil) a nil return is the acceptance; with it
// the event joins b.pend and commitBatch decides.
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
	client := ev.Client()
	sh := s.shardFor(client)
	ap, mb, err := s.assemble(sh, ev)
	if err != nil {
		s.rejected.Add(1)
		return err
	}
	if b != nil {
		b.touched[sh.idx] = true
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
			model:     mb,
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

// assemble is the one step that puts an event into its shard's session
// state. Under the shard's mutex it loads the serving model, tokenizes
// the statement with that model's vocabulary, appends it to the
// client's open session and, when the shard has a WAL stream, writes the
// event's record — so a model swap (whose barrier takes every shard
// mutex) can never land between an event's key and its append, and a
// snapshot captures the append and its record together. The record is
// not durable yet — IngestBatch commits the stream before the event is
// acknowledged. A WAL write failure undoes the append and rejects the
// event — nothing enters a session that the log cannot replay. It
// returns the model the event was keyed with.
func (s *Service) assemble(sh *shard, ev Event) (Appended, *modelBundle, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mb := s.model.Load()
	key := mb.ucad.Vocab.Key(ev.SQL)
	if key == sqlnorm.UnknownKey {
		s.unknownKeys.Add(1)
	}
	ap := sh.asm.Append(ev, key, mb.window+1)
	if ap.Dup || sh.store == nil {
		// Nothing to log: the service keeps no WAL, or a redelivery
		// mutated nothing and the original append's record already
		// covers this position.
		return ap, mb, nil
	}
	client := ev.Client()
	rec := walRecord{
		T: recEvent, Client: client, SID: ap.SessionID, Pos: ap.Pos,
		User: ev.User, Addr: ev.Addr, SQL: ev.SQL, TS: ap.Time,
		Epoch: ev.Epoch, Seq: ev.Seq,
	}
	if !ap.Seen.Equal(ap.Time) {
		seen := ap.Seen
		rec.At = &seen
	}
	if err := s.appendWAL(sh, &rec); err != nil {
		sh.asm.Rollback(client, ap.SessionID, ap.Pos, ev.Epoch, ev.Seq)
		return ap, mb, fmt.Errorf("serve: wal append: %w", err)
	}
	return ap, mb, nil
}

// servingRanker is the scoring engine's Ranker: each batch is ranked by
// the model serving when the batch starts.
type servingRanker struct{ s *Service }

func (r servingRanker) RankBatch(dst []int, contexts [][]int, keys []int) []int {
	return r.s.model.Load().ucad.Model.RankBatch(dst, contexts, keys)
}

// onResult runs on scoring workers: ranks beyond top-p raise (or
// extend) the session's mid-session alert. A job tokenized with another
// vocabulary than the serving model's is dropped: that model ranks keys
// of its own vocabulary, and close-out detection scores the rekeyed
// session. A fine-tune round keeps the vocabulary, so results in flight
// across its install stand.
func (s *Service) onResult(r Result) {
	if r.Rank <= r.model.topP || r.model.ucad.Vocab != s.model.Load().ucad.Vocab {
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
// pool, anomalous ones become (or complete) pending alerts. Each
// session's stored keys are ranked by the model that assigned them; no
// statement is lexed a second time.
func (s *Service) finalize(closed []closing) {
	for _, c := range closed {
		t := obs.StartTimer(s.metrics.closeoutSeconds)
		positions := c.model.ucad.Model.DetectSession(c.Session.Keys())
		t.Stop()
		s.processed.Add(1)
		if len(positions) == 0 {
			s.addVerified(c.Session)
		} else {
			s.flagged.Add(1)
		}
		s.alerts.finalize(c.Session, c.Client, positions)
	}
	s.maybeRetrain()
}

func (s *Service) addVerified(sess *session.Session) {
	s.verifiedMu.Lock()
	s.verified = append(s.verified, sess)
	s.verifiedMu.Unlock()
}

func (s *Service) verifiedCount() int {
	s.verifiedMu.Lock()
	defer s.verifiedMu.Unlock()
	return len(s.verified)
}

// maybeRetrain kicks one background fine-tune round when the verified
// pool is large enough; scoring keeps running on the serving model
// throughout (see retrain). A configured RetrainGate is
// acquired first, so overlapping tenant rounds share the training
// workers fairly instead of piling up.
func (s *Service) maybeRetrain() {
	if s.cfg.RetrainAfter <= 0 || s.verifiedCount() < s.cfg.RetrainAfter {
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
		if n, _ := s.retrain(); n > 0 {
			s.retrains.Add(1)
			s.CheckpointModel()
		}
	}()
}

// retrain runs one round of the paper's periodic training (§3): it
// fine-tunes a copy of the serving model on the verified pool and clears
// the pool, feeding the ucad_train_* and ucad_retrain_seconds families
// as it goes. The round runs off the serving path — scoring keeps
// ranking with the model it copies — and installs the copy under the
// swap barrier only if that model still serves: an admin upload that
// lands during the round wins. It returns the number of sessions
// absorbed (0: the pool was empty and no round ran) and the round's
// result.
func (s *Service) retrain() (int, transdas.TrainResult) {
	s.verifiedMu.Lock()
	pool := s.verified
	s.verified = nil
	s.verifiedMu.Unlock()
	if len(pool) == 0 {
		return 0, transdas.TrainResult{}
	}
	m := s.metrics
	from := s.model.Load()
	start := time.Now()
	last := start
	tuned, res := from.ucad.FineTune(pool, s.cfg.RetrainEpochs, func(_ int, loss float64) {
		now := time.Now()
		m.trainEpochLoss.Set(loss)
		m.trainEpochs.Inc()
		m.trainEpochSeconds.Observe(now.Sub(last).Seconds())
		last = now
	})
	took := time.Since(start).Seconds()
	m.retrainSeconds.Observe(took)
	m.trainWindowsPerSec.Set(float64(res.Windows*len(res.EpochLoss)) / took)
	s.install(tuned, from)
	return len(pool), res
}

// SwapModel hot-replaces the serving model without draining the
// service (see install); it counts in ucad_model_swaps_total. Scoring
// jobs queued before the swap still run, but their results raise no
// alert when the vocabulary changed (see onResult). The caller has
// already validated that the model loads.
func (s *Service) SwapModel(u *core.UCAD) error {
	if s.stopped.Load() {
		return ErrStopped
	}
	s.install(u, nil)
	s.modelSwaps.Add(1)
	return nil
}

// Model returns the model serving now.
func (s *Service) Model() *core.UCAD { return s.model.Load().ucad }

// install makes u the serving model behind a brief stop-the-world
// barrier over every ingest shard mutex. Events tokenize under their
// shard's mutex (see assemble), so each one is keyed and appended wholly
// before the barrier or wholly after it. The score cache moves with the
// model, in this order: detached from the old model, so a straggler
// still scoring it cannot insert into the cache u now owns (see
// transdas.Scorer.ScoreBatchInto); bumped, so no row the old model
// scored is served for u; and attached to u, so the lifetime hit/miss
// counters stay monotonic (a cache u brings is kept, and bumped, when
// the old model had none). A new vocabulary re-tokenizes
// every open session, so the key windows handed to scorers stay
// consistent with the model ranking them. With from non-nil, u is
// installed only while from still serves.
func (s *Service) install(u *core.UCAD, from *modelBundle) {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			s.shards[i].mu.Unlock()
		}
	}()
	old := s.model.Load()
	if from != nil && old != from {
		return
	}
	if c := old.ucad.Model.ScoreCache(); c != nil {
		old.ucad.Model.SetScoreCache(nil)
		c.Bump()
		u.Model.SetScoreCache(c)
	} else if c := u.Model.ScoreCache(); c != nil {
		c.Bump()
	}
	s.model.Store(newBundle(u))
	if u.Vocab != old.ucad.Vocab {
		for _, sh := range s.shards {
			sh.asm.Rekey(u.Vocab.Key)
		}
	}
}

// Resolve applies an expert verdict to a final alert: false alarms
// rejoin the training pool (§5.2), confirmed anomalies never do.
func (s *Service) Resolve(id int64, verdict string) error {
	if verdict != StatusFalseAlarm && verdict != StatusConfirmed {
		return ErrInvalid
	}
	sess, err := s.alerts.resolve(id, verdict)
	if err != nil {
		return err
	}
	s.metrics.alertsResolved.With(s.metrics.tenant, verdict).Inc()
	if sess != nil && verdict == StatusFalseAlarm {
		s.addVerified(sess)
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
	var cs scorecache.Stats
	if c := s.model.Load().cache; c != nil {
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
		SessionsProcessed: int(s.processed.Load()),
		SessionsFlagged:   int(s.flagged.Load()),
		AlertsOpen:        s.alerts.openCount(),
		AlertsRaised:      s.alerts.raisedCount(),
		AlertsEvicted:     s.alerts.evictedCount(),
		VerifiedPool:      s.verifiedCount(),
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
