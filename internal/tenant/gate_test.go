package tenant

import (
	"sync"
	"testing"
	"time"
)

// waitPosition spins until the tenant reports the given queue position
// (the waiter goroutine needs a moment to enqueue itself).
func waitPosition(t *testing.T, g *FairGate, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for g.Position(tenant) != want {
		if time.Now().After(deadline) {
			t.Fatalf("Position(%s) = %d, want %d", tenant, g.Position(tenant), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairGateServesLeastServedFirst: with the gate held, the waiter
// with the lowest accumulated training time runs next regardless of
// arrival order.
func TestFairGateServesLeastServedFirst(t *testing.T) {
	g := NewFairGate()
	// Seed history: "hog" has consumed far more training wall-clock.
	g.served["hog"] = 10 * time.Second
	g.served["light"] = time.Second

	release := g.Acquire("holder")

	order := make(chan string, 2)
	var wg sync.WaitGroup
	enqueue := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := g.Acquire(tenant)
			order <- tenant
			r()
		}()
		waitPosition(t, g, tenant, 1)
	}
	// Enqueue hog strictly first so arrival order alone would pick it;
	// light's arrival demotes it (positions rank by service time,
	// not arrival).
	enqueue("hog")
	enqueue("light")
	waitPosition(t, g, "hog", 2)
	if p := g.Position("light"); p != 1 {
		t.Fatalf("Position(light) = %d, want 1", p)
	}
	if p := g.Position("idle"); p != 0 {
		t.Fatalf("Position(idle) = %d, want 0", p)
	}

	release()
	wg.Wait()
	close(order)
	var got []string
	for tenant := range order {
		got = append(got, tenant)
	}
	if len(got) != 2 || got[0] != "light" || got[1] != "hog" {
		t.Fatalf("service order = %v, want [light hog]", got)
	}
}

// TestFairGateReleaseIdempotentAndAccounting: release is once-only and
// accumulates the holder's wall-clock into its service history.
func TestFairGateReleaseIdempotentAndAccounting(t *testing.T) {
	g := NewFairGate()
	release := g.Acquire("a")
	release()
	release() // second call must be a no-op

	g.mu.Lock()
	busy, served := g.busy, g.served["a"]
	g.mu.Unlock()
	if busy {
		t.Fatal("gate still busy after release")
	}
	if served < 0 {
		t.Fatalf("served[a] = %v", served)
	}

	// The gate is reusable after release.
	done := make(chan struct{})
	go func() {
		r := g.Acquire("b")
		r()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("gate not reacquirable after release")
	}
}
