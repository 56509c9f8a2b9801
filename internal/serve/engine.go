package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/ucad/ucad/internal/obs"
)

// Ranker scores a micro-batch of operations in one stacked forward
// pass: dst[b] receives the 1-based rank of keys[b] given contexts[b],
// and the returned slice is dst grown as needed. The Service ranks each
// batch with the model serving when the batch starts; no model is
// changed once it can be scored, so a batch needs no lock.
type Ranker interface {
	RankBatch(dst []int, contexts [][]int, keys []int) []int
}

// Job is one operation awaiting scoring: the key window ending at the
// scored operation, plus enough identity to route the result.
type Job struct {
	Client    string
	User      string
	SessionID string
	// Keys is the context window; the last entry is the scored key.
	Keys []int
	// Pos is the operation's index within its session.
	Pos int
	// SQL is the scored statement text (carried into alerts).
	SQL string

	// model is the bundle whose vocabulary tokenized Keys; a result is
	// acted on only while that vocabulary is the serving one's.
	model *modelBundle

	// enqueuedAt is stamped by Submit; workers derive the queue-wait
	// latency from it.
	enqueuedAt time.Time
}

// Result is a scored job.
type Result struct {
	Job
	// Rank is the 1-based similarity rank of the operation's key (§5.3);
	// ranks beyond top-p are anomalies.
	Rank int
}

// Engine is a sharded worker pool scoring jobs against a Ranker. Each
// ingest shard owns its own bounded queue, so submitters on different
// shards never contend on one channel; Submit never blocks — a full
// shard queue fails fast with ErrBusy so the ingestion layer can push
// backpressure to clients. Workers are distributed across the shard
// queues (at least one per queue) and drain them in micro-batches,
// scoring each batch with a single fused RankBatch call; a semaphore
// caps concurrent scoring at the configured worker count even when
// shards outnumber workers.
type Engine struct {
	ranker   Ranker
	batch    int
	queues   []chan Job
	sem      chan struct{} // caps concurrent RankBatch passes at Workers
	onResult func(Result)
	nworkers int

	mu     sync.RWMutex // guards closed vs Submit
	closed bool

	// start defers worker spawning to the first Submit so the
	// instrument/instrumentShards writes (which workers read without a
	// lock) happen-before any worker goroutine exists.
	start    sync.Once
	workers  sync.WaitGroup
	inflight sync.WaitGroup

	scored   atomic.Int64
	rejected atomic.Int64

	// Optional stage instrumentation (nil when uninstrumented); set via
	// instrument/instrumentShards before any Submit.
	queueWait *obs.Histogram
	scoreLat  *obs.Histogram
	batchSize *obs.Histogram
	shardWait []*obs.Histogram // per-shard queue wait, index-aligned with queues
}

// NewEngine builds an engine with the given shard, worker, total queue
// capacity and micro-batch sizes (values < 1 are raised to 1; the
// capacity is split evenly across shard queues). onResult is invoked
// from worker goroutines for every scored job and must be safe for
// concurrent use.
func NewEngine(r Ranker, shards, workers, queueSize, batch int, onResult func(Result)) *Engine {
	if shards < 1 {
		shards = 1
	}
	if workers < 1 {
		workers = 1
	}
	if queueSize < 1 {
		queueSize = 1
	}
	if batch < 1 {
		batch = 1
	}
	if onResult == nil {
		onResult = func(Result) {}
	}
	perQueue := queueSize / shards
	if perQueue < 1 {
		perQueue = 1
	}
	e := &Engine{
		ranker:   r,
		batch:    batch,
		queues:   make([]chan Job, shards),
		sem:      make(chan struct{}, workers),
		onResult: onResult,
	}
	for i := range e.queues {
		e.queues[i] = make(chan Job, perQueue)
	}
	e.nworkers = workers
	return e
}

// spawn starts the worker pool, distributing workers across the shard
// queues (at least one drainer per queue).
func (e *Engine) spawn() {
	shards, workers := len(e.queues), e.nworkers
	for i := 0; i < shards; i++ {
		nw := workers / shards
		if i < workers%shards {
			nw++
		}
		if nw < 1 {
			nw = 1
		}
		for w := 0; w < nw; w++ {
			e.workers.Add(1)
			go e.worker(i)
		}
	}
}

// instrument attaches the per-stage latency histograms (queue wait,
// score latency, micro-batch size). Call before the first Submit.
func (e *Engine) instrument(queueWait, scoreLat, batchSize *obs.Histogram) {
	e.queueWait = queueWait
	e.scoreLat = scoreLat
	e.batchSize = batchSize
}

// instrumentShards attaches per-shard queue-wait histograms
// (index-aligned with the shard queues). Call before the first Submit.
func (e *Engine) instrumentShards(waits []*obs.Histogram) {
	e.shardWait = waits
}

// Submit enqueues a job on its shard's queue, failing fast with ErrBusy
// when that queue is full or ErrStopped after Stop.
func (e *Engine) Submit(shard int, j Job) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrStopped
	}
	e.start.Do(e.spawn)
	j.enqueuedAt = time.Now()
	e.inflight.Add(1)
	select {
	case e.queues[shard%len(e.queues)] <- j:
		return nil
	default:
		e.inflight.Done()
		e.rejected.Add(1)
		return ErrBusy
	}
}

// Drain blocks until every accepted job has been scored. Callers must
// quiesce submission first (it is a shutdown/test aid, not a barrier
// for concurrent submitters).
func (e *Engine) Drain() { e.inflight.Wait() }

// Stop rejects further submissions and waits for the workers to finish
// the jobs already queued.
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, q := range e.queues {
			close(q)
		}
	}
	e.mu.Unlock()
	e.workers.Wait()
}

// QueueDepth reports the number of queued-but-unstarted jobs across
// every shard queue.
func (e *Engine) QueueDepth() int {
	n := 0
	for _, q := range e.queues {
		n += len(q)
	}
	return n
}

// ShardQueueDepth reports one shard queue's queued-but-unstarted jobs.
func (e *Engine) ShardQueueDepth(shard int) int { return len(e.queues[shard%len(e.queues)]) }

// Counts reports lifetime scored and rejected job counts.
func (e *Engine) Counts() (scored, rejected int64) {
	return e.scored.Load(), e.rejected.Load()
}

func (e *Engine) worker(shard int) {
	defer e.workers.Done()
	queue := e.queues[shard]
	var wait *obs.Histogram
	if e.shardWait != nil {
		wait = e.shardWait[shard]
	}
	batch := make([]Job, 0, e.batch)
	ctxs := make([][]int, 0, e.batch)
	keys := make([]int, 0, e.batch)
	ranks := make([]int, 0, e.batch)
	for j := range queue {
		batch = append(batch[:0], j)
	fill:
		// Micro-batch: opportunistically drain more queued jobs so a
		// burst is fused into one stacked forward pass.
		for len(batch) < e.batch {
			select {
			case j2, ok := <-queue:
				if !ok {
					break fill
				}
				batch = append(batch, j2)
			default:
				break fill
			}
		}
		if e.batchSize != nil {
			e.batchSize.Observe(float64(len(batch)))
		}
		if e.queueWait != nil || wait != nil {
			now := time.Now()
			for _, job := range batch {
				took := now.Sub(job.enqueuedAt).Seconds()
				if e.queueWait != nil {
					e.queueWait.Observe(took)
				}
				if wait != nil {
					wait.Observe(took)
				}
			}
		}
		ctxs, keys = ctxs[:0], keys[:0]
		for _, job := range batch {
			n := len(job.Keys)
			ctxs = append(ctxs, job.Keys[:n-1])
			keys = append(keys, job.Keys[n-1])
		}
		// The semaphore bounds concurrent scoring at the worker count:
		// with more shard queues than workers, drainers beyond the cap
		// wait here instead of oversubscribing the cores.
		e.sem <- struct{}{}
		var t obs.Timer
		if e.scoreLat != nil {
			t = obs.StartTimer(e.scoreLat)
		}
		ranks = e.ranker.RankBatch(ranks[:0], ctxs, keys)
		if e.scoreLat != nil {
			t.Stop()
		}
		<-e.sem
		for i, job := range batch {
			e.scored.Add(1)
			e.onResult(Result{Job: job, Rank: ranks[i]})
			e.inflight.Done()
		}
	}
}
