package main

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"time"

	"github.com/ucad/ucad/internal/detect"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/wal"
)

// shadowTenant is one tenant's shadow pipeline: fresh public instances of
// every layer a served event passes through, wired by hand in the order
// Service.Ingest and the scoring engine wire them, so each call can be
// timed on its own. It re-enacts what the real front did to the same
// event in an earlier pass; its spans hang under that pass's spans.
type shadowTenant struct {
	tr         *tracer
	vocab      *sqlnorm.Vocabulary
	asm        *serve.Assembler
	window     int
	minContext int
	log        *wal.Log // nil when the workload is not durable
	engine     *serve.Engine
	ranker     *shadowRanker
	results    chan time.Time // when onResult ran, one per submitted job
}

// shadowRanker is the engine's Ranker in the shadow pipeline. It times
// the real detect.Online.RankBatch (model lock, pooled scorer, cache
// attached), then re-enacts what that call does inside — cache lookup,
// and on a miss the forward pass and the cache insert — on instances of
// its own, as that span's children.
type shadowRanker struct {
	tr     *tracer
	online *detect.Online
	scorer *transdas.Scorer // over a second model copy with no cache attached
	cache  *scorecache.Cache
	row    []float64
	ranks  []int

	// Set by the caller before Submit; the worker reads them after
	// receiving the job, the caller reads start back after the result.
	settle int32
	unit   int
	start  time.Time
}

func (k *shadowRanker) RankBatch(dst []int, ctxs [][]int, keys []int) []int {
	k.start = time.Now()
	rb := k.tr.begin(k.settle, kRankBatch, k.unit)
	dst = k.online.RankBatch(dst, ctxs, keys)
	k.tr.end(rb)
	for b := range ctxs {
		g := k.tr.begin(rb, kCacheGet, k.unit)
		hit := k.cache.GetInto(k.row, ctxs[b])
		k.tr.end(g)
		if hit {
			continue
		}
		f := k.tr.begin(rb, kForward, k.unit)
		k.ranks = k.scorer.RankBatchInto(k.ranks[:0], ctxs[b:b+1], keys[b:b+1])
		k.tr.end(f)
		p := k.tr.begin(rb, kCachePut, k.unit)
		k.cache.Put(ctxs[b], k.row)
		k.tr.end(p)
	}
	return dst
}

// newShadowTenant builds tenant c's shadow pipeline under dir.
func (r *run) newShadowTenant(tr *tracer, c int, dir string) (*shadowTenant, error) {
	real, err := r.sut.models[c].load()
	if err != nil {
		return nil, err
	}
	r.sp.model.tune(real)
	bare, err := r.sut.models[c].load()
	if err != nil {
		return nil, err
	}
	bare.Model.SetScorePrecision(r.sp.model.precision)
	cfg := real.Model.Config()
	st := &shadowTenant{
		tr: tr, vocab: real.Vocab, asm: serve.NewAssembler(10*time.Minute, nil),
		window: cfg.Window, minContext: cfg.MinContext,
		results: make(chan time.Time, 1), // one job in flight: the caller waits for each
	}
	st.ranker = &shadowRanker{
		tr: tr, online: detect.NewOnline(real), scorer: bare.Model.NewScorer(),
		cache: scorecache.New(cacheRows), row: make([]float64, cfg.Vocab),
	}
	st.engine = serve.NewEngine(st.ranker, 1, 1, sutQueue, sutBatch, func(serve.Result) { st.results <- time.Now() })
	if r.sp.durable {
		st.log, err = wal.Open(filepath.Join(dir, "shadow-wal-"+tenantID(c)), wal.Options{Sync: r.sp.fsync})
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *shadowTenant) close() {
	st.engine.Stop()
	if st.log != nil {
		st.log.Close()
	}
}

// walRecord mirrors the event record serve logs before acknowledging
// (internal/serve/durable.go): same fields, same JSON, so the shadow
// log's appends are the size the real ones are.
type walRecord struct {
	T      string    `json:"t"`
	Client string    `json:"c,omitempty"`
	SID    string    `json:"s,omitempty"`
	Pos    int       `json:"p,omitempty"`
	User   string    `json:"u,omitempty"`
	Addr   string    `json:"a,omitempty"`
	SQL    string    `json:"q,omitempty"`
	TS     time.Time `json:"ts"`
	Epoch  int64     `json:"e,omitempty"`
	Seq    int64     `json:"n,omitempty"`
}

// ingest re-enacts Service.Ingest for one event: tokenize, assemble, log,
// submit — under the front span — then waits for the verdict and files
// the asynchronous half (queue wait, ranking, hand-back) under the settle
// span.
func (st *shadowTenant) ingest(front, settle int32, unit int, ev serve.Event) error {
	tr := st.tr
	s := tr.begin(front, kKey, unit)
	key := st.vocab.Key(ev.SQL)
	tr.end(s)

	s = tr.begin(front, kAppend, unit)
	ap := st.asm.Append(ev, key, st.window+1)
	tr.end(s)

	if st.log != nil {
		s = tr.begin(front, kWAL, unit)
		b, err := json.Marshal(walRecord{T: "e", Client: ev.Client(), SID: ap.SessionID, Pos: ap.Pos,
			User: ev.User, Addr: ev.Addr, SQL: ev.SQL, TS: ap.Time, Epoch: ev.Epoch, Seq: ev.Seq})
		if err == nil {
			err = st.log.Append(b)
		}
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if ap.Dup || ap.Pos < st.minContext {
		return nil
	}
	st.ranker.settle, st.ranker.unit = settle, unit
	s = tr.begin(front, kSubmit, unit)
	err := st.engine.Submit(0, serve.Job{Client: ev.Client(), User: ev.User, SessionID: ap.SessionID,
		Keys: ap.Keys, Pos: ap.Pos, SQL: ev.SQL})
	tr.end(s)
	if err != nil {
		return err
	}
	submitted := time.Now()
	resultAt := <-st.results
	back := time.Now()
	if st.ranker.start.After(submitted) {
		tr.record(settle, kQueueWait, unit, submitted, st.ranker.start)
	}
	tr.record(settle, kHandoff, unit, resultAt, back)
	return nil
}

// responseSink is the least ResponseWriter a handler needs: it keeps the
// status and discards the body, so ServeHTTP can be timed without a
// socket.
type responseSink struct {
	header http.Header
	status int
	n      int
}

func (w *responseSink) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *responseSink) WriteHeader(code int) { w.status = code }
func (w *responseSink) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}
