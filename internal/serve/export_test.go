package serve

import "sync"

// ParkScoring replaces the service's scoring engine with a one-worker
// engine of the given queue size whose ranker blocks until release is
// called: once the worker holds one job (held receives) and queueSize
// more are queued, every further submission is ErrBusy — the
// deterministic full-queue seam of the rollback/redelivery tests. Call
// it before the first Ingest; release is idempotent.
func (s *Service) ParkScoring(queueSize int) (held <-chan struct{}, release func()) {
	r := &blockingRanker{started: make(chan struct{}, 1<<16), release: make(chan struct{})}
	s.engine.Stop()
	s.engine = NewEngine(r, len(s.shards), 1, queueSize, 1, s.onResult)
	var once sync.Once
	return r.started, func() { once.Do(func() { close(r.release) }) }
}

// ToyUCAD and NormalStatement hand the package's deterministic toy
// detector and its in-vocabulary statements to the external test
// package (the tests that drive serve through internal/feed).
var (
	ToyUCAD         = testUCAD
	NormalStatement = normalStatement
)
