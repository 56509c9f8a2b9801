package tenant

import (
	"sync"
	"time"
)

// FairGate is the registry's fair admission gate for
// background fine-tune rounds. Every tenant's Service shares one
// process-wide training budget (the data-parallel TrainWorkers pool
// saturates the host's cores); without a gate, N tenants crossing their
// retrain thresholds together would run N fine-tunes concurrently and
// oversubscribe every core. The gate admits one round at a time and
// picks the next round least-served-first — the tenant that has
// consumed the least training wall-clock goes first, ties by arrival —
// so a tenant retraining constantly cannot starve one that retrains
// rarely.
//
// It implements serve.RetrainGate.
type FairGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	busy bool
	// running is the tenant currently holding the gate ("" when idle).
	running string
	// served is each tenant's accumulated training wall-clock — the
	// fair-queueing priority key (lower runs first).
	served map[string]time.Duration
	seq    uint64
	queue  []*gateWaiter
}

type gateWaiter struct {
	tenant string
	seq    uint64
}

// NewFairGate returns an idle gate.
func NewFairGate() *FairGate {
	g := &FairGate{served: make(map[string]time.Duration)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// pickLocked returns the waiter that should run next: minimum service
// time, ties broken by arrival order. nil when nobody waits.
func (g *FairGate) pickLocked() *gateWaiter {
	var best *gateWaiter
	var bestV time.Duration
	for _, w := range g.queue {
		v := g.served[w.tenant]
		if best == nil || v < bestV || (v == bestV && w.seq < best.seq) {
			best, bestV = w, v
		}
	}
	return best
}

// Acquire blocks until the caller's fine-tune round may start and
// returns the release to call when it ends. Safe for concurrent use
// from many tenants' retraining goroutines.
func (g *FairGate) Acquire(tenant string) func() {
	g.mu.Lock()
	g.seq++
	w := &gateWaiter{tenant: tenant, seq: g.seq}
	g.queue = append(g.queue, w)
	for g.busy || g.pickLocked() != w {
		g.cond.Wait()
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	g.busy = true
	g.running = tenant
	g.mu.Unlock()
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.served[tenant] += time.Since(start)
			g.busy = false
			g.running = ""
			g.mu.Unlock()
			g.cond.Broadcast()
		})
	}
}

// Position reports the tenant's place in the retrain queue: 0 when it
// is idle or running now, 1 when it runs next, and so on. Multiple
// queued rounds for one tenant report the best one's position.
func (g *FairGate) Position(tenant string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	var mine *gateWaiter
	for _, w := range g.queue {
		if w.tenant == tenant && (mine == nil || w.seq < mine.seq) {
			mine = w
		}
	}
	if mine == nil {
		return 0
	}
	myV := g.served[tenant]
	pos := 1
	seen := map[string]bool{tenant: true}
	for _, w := range g.queue {
		if seen[w.tenant] {
			continue
		}
		v := g.served[w.tenant]
		if v < myV || (v == myV && w.seq < mine.seq) {
			seen[w.tenant] = true
			pos++
		}
	}
	return pos
}
