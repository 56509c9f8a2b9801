package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/tenant"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/workload"
)

// trained is one tenant's model as set-up produced it: the detector, its
// serialized form (so the reference run and the traced passes get their
// own copies without retraining), and what training cost.
type trained struct {
	ucad    *core.UCAD
	blob    []byte
	windows int
	took    time.Duration
}

// trainModel fits a tenant's detector the way core.Train does
// (vocabulary, then Trans-DAS on the keyed sessions), calling transdas
// directly so the window count is known. Deterministic for a fixed
// (grammar, shape, tenant index).
func trainModel(g workload.Spec, m modelShape, tenantIdx int) (*trained, error) {
	src := workload.NewScenarioSource(g, 1000+int64(tenantIdx), 0)
	sessions := make([]*session.Session, m.sessions)
	for i := range sessions {
		ss := src.NextSession()
		s := &session.Session{ID: ss.ClientID, User: ss.User, Addr: ss.Addr}
		for _, sql := range ss.Statements {
			s.Ops = append(s.Ops, session.Operation{SQL: sql})
		}
		sessions[i] = s
	}
	start := time.Now()
	vocab := sqlnorm.NewVocabulary()
	session.TokenizeLearn(vocab, sessions)
	cfg := transdas.DefaultConfig(vocab.Size())
	cfg.Hidden, cfg.Heads, cfg.Blocks, cfg.Window = m.hidden, m.heads, m.blocks, m.window
	cfg.Epochs, cfg.Stride, cfg.Dropout = m.epochs, m.stride, 0
	// Data-parallel training is bit-reproducible for fixed workers and
	// batch size; both are pinned so a bigger box trains the same model.
	cfg.TrainWorkers, cfg.BatchSize = nCallers, 16
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := transdas.New(cfg)
	keys := make([][]int, len(sessions))
	for i, s := range sessions {
		keys[i] = s.Keys()
	}
	res := model.Train(keys, nil)
	took := time.Since(start)
	u := &core.UCAD{Vocab: vocab, Model: model}
	var blob bytes.Buffer
	if err := u.Save(&blob); err != nil {
		return nil, err
	}
	return &trained{ucad: u, blob: blob.Bytes(), windows: res.Windows * m.epochs, took: took}, nil
}

// tune applies the host-local serving settings a persisted model does
// not carry: the score cache and the scoring precision.
func (m modelShape) tune(u *core.UCAD) {
	u.Model.SetScoreCache(scorecache.New(cacheRows))
	u.Model.SetScorePrecision(m.precision)
}

// loadModel decodes a fresh copy of a trained detector.
func (t *trained) load() (*core.UCAD, error) { return core.Load(bytes.NewReader(t.blob)) }

// sut is the running system under test plus the bench-side plumbing its
// front needs (listener, HTTP client, audit files and feeders).
type sut struct {
	dir    string // scratch dir holding data/, audit logs, checkpoints
	reg    *tenant.Registry
	models []*trained

	srv    *http.Server
	url    string
	client *http.Client

	feeders []*feederRig
}

func (s *sut) services() []*serve.Service {
	var out []*serve.Service
	for _, t := range s.reg.List() {
		out = append(out, t.Service())
	}
	return out
}

func (s *sut) drain() {
	for _, svc := range s.services() {
		svc.Drain()
	}
}

func (s *sut) dataRoot() string { return filepath.Join(s.dir, "data") }

func (sp spec) registryOptions(root string) tenant.Options {
	opts := tenant.Options{
		Serve: serve.Config{
			Workers: sutWorkers, Shards: sutShards, QueueSize: sutQueue, Batch: sutBatch,
			IdleTimeout: 10 * time.Minute, SweepEvery: 15 * time.Second,
		},
		Tune: sp.model.tune,
	}
	if sp.durable {
		opts.Root = root
		// SnapshotEvery stays off: a background snapshot in the middle of
		// a 10-second phase would be one large outlier per run.
		opts.Durability = serve.DurabilityConfig{Fsync: sp.fsync}
	}
	return opts
}

// bootSUT trains the tenants' models and starts the registry and
// whatever the front needs. dir must exist and be empty.
func bootSUT(sp spec, dir string) (_ *sut, err error) {
	s := &sut{dir: dir}
	defer func() {
		if err != nil {
			s.stop(true) // release what the failed boot already started
		}
	}()
	s.reg = tenant.New(sp.registryOptions(s.dataRoot()))
	for c := 0; c < nCallers; c++ {
		m, err := trainModel(sp.grammar(), sp.model, c)
		if err != nil {
			return nil, fmt.Errorf("train tenant %d: %w", c, err)
		}
		s.models = append(s.models, m)
		if _, err := s.reg.CreateFromModel(tenant.Spec{ID: tenantID(c)}, m.ucad); err != nil {
			return nil, err
		}
	}
	if sp.front == frontInproc {
		return s, nil
	}
	if err := s.listen(s.reg.Handler()); err != nil {
		return nil, err
	}
	if sp.front == frontFeed {
		for c := 0; c < nCallers; c++ {
			rig, err := startFeeder(s, c, nil)
			if err != nil {
				return nil, err
			}
			s.feeders = append(s.feeders, rig)
		}
	}
	return s, nil
}

// listen serves h on a loopback port and prepares a keep-alive client
// with one connection per caller.
func (s *sut) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: h}
	go s.srv.Serve(ln) // returns ErrServerClosed on stop
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: nCallers, MaxConnsPerHost: nCallers},
	}
	return nil
}

// stop shuts the front down and, when closeRegistry is set, closes the
// registry too. A non-durable registry's Close runs close-out detection
// over every open session — seconds of scoring nobody measures — so a
// run that is about to exit skips it.
// Calling it again only does what the first call skipped.
func (s *sut) stop(closeRegistry bool) {
	for _, f := range s.feeders {
		f.stop()
	}
	s.feeders = nil
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.srv.Shutdown(ctx)
		cancel()
		s.client.CloseIdleConnections()
		s.srv = nil
	}
	if closeRegistry {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.reg.Close(ctx)
		cancel()
	}
}

// feederRig is one tenant's log-to-HTTP pipeline: the audit file the
// bench appends to and the feed.Feeder shipping it, with a timing
// Deliverer in between.
type feederRig struct {
	path    string
	file    *os.File
	metrics *feed.Metrics
	deliver *timingDeliverer
	cancel  context.CancelFunc
	done    chan error
}

// timingDeliverer wraps the feeder's Deliverer: it stamps when each
// batch was acknowledged, which is the only place a line's "delivered"
// instant is observable from outside the feed package. onDeliver, when
// set, also sees each call's start (traced passes).
type timingDeliverer struct {
	next      feed.Deliverer
	onDeliver func(start, end time.Time, n int)

	mu   sync.Mutex
	acks []deliverAck
}

type deliverAck struct {
	upto int // cumulative events delivered through this batch
	at   time.Time
}

func (d *timingDeliverer) Deliver(ctx context.Context, events []serve.Event) error {
	start := time.Now()
	if err := d.next.Deliver(ctx, events); err != nil {
		return err
	}
	end := time.Now()
	d.mu.Lock()
	upto := len(events)
	if n := len(d.acks); n > 0 {
		upto += d.acks[n-1].upto
	}
	d.acks = append(d.acks, deliverAck{upto: upto, at: end})
	d.mu.Unlock()
	if d.onDeliver != nil {
		d.onDeliver(start, end, len(events))
	}
	return nil
}

// progress reports how many events and batches have been acknowledged.
func (d *timingDeliverer) progress() (events, batches int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.acks); n > 0 {
		return d.acks[n-1].upto, n
	}
	return 0, 0
}

// snapshot copies the acknowledgements recorded so far.
func (d *timingDeliverer) snapshot() []deliverAck {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]deliverAck(nil), d.acks...)
}

// startFeeder creates tenant c's audit file and runs a Feeder over it at
// the ucad-feed flag defaults (batch 64, flush 200ms, poll 50ms). src,
// when non-nil, wraps the tailer (traced passes time Next through it).
func startFeeder(s *sut, c int, wrap func(feed.Source) feed.Source) (*feederRig, error) {
	id := tenantID(c)
	rig := &feederRig{path: filepath.Join(s.dir, "audit-"+id+".jsonl"), done: make(chan error, 1)}
	f, err := os.OpenFile(rig.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	rig.file = f
	rig.metrics = feed.NewMetrics(nil)
	sm := rig.metrics.Source(id)
	tailer, err := feed.NewTailer(feed.TailerConfig{Path: rig.path, Metrics: sm})
	if err != nil {
		return nil, err
	}
	var src feed.Source = tailer
	if wrap != nil {
		src = wrap(tailer)
	}
	rig.deliver = &timingDeliverer{
		next: &feed.HTTPDeliverer{URL: s.url, Tenant: id, Client: s.client, Metrics: sm},
	}
	fd, err := feed.NewFeeder(feed.FeederConfig{
		Source: src, Deliver: rig.deliver, Tenant: id,
		CheckpointPath: filepath.Join(s.dir, "offsets-"+id+".ckpt"),
		Metrics:        sm,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig.cancel = cancel
	go func() {
		err := fd.Run(ctx)
		src.Close()
		rig.done <- err
	}()
	return rig, nil
}

func (r *feederRig) stop() {
	r.cancel()
	<-r.done
	r.file.Close()
}
