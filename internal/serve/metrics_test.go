package serve

import (
	"fmt"
	"testing"
	"time"
)

// TestAlertRetentionBounds exercises the resolved-alert eviction policy
// at the store level: FIFO count bound, TTL aging, open alerts immune.
func TestAlertRetentionBounds(t *testing.T) {
	clk := newFakeClock()
	st := newAlertStore(clk.Now, 2, time.Hour)

	mk := func(i int) int64 {
		sid := fmt.Sprintf("s%d", i)
		st.flag(Result{Job: Job{Client: "c", User: "u", SessionID: sid, Pos: 3, SQL: "BAD"}, Rank: 99}, "u")
		a := st.finalize(closedSession(sid, make([]string, 11)...), "c", mockCloseout)
		return a.ID
	}

	// Three resolved alerts against a max of 2: the first resolved is
	// evicted, FIFO.
	var ids []int64
	for i := 0; i < 3; i++ {
		ids = append(ids, mk(i))
		if _, err := st.resolve(ids[i], StatusConfirmed); err != nil {
			t.Fatal(err)
		}
	}
	if st.evictedCount() != 1 {
		t.Fatalf("evicted = %d, want 1", st.evictedCount())
	}
	if got := st.list(""); len(got) != 2 || got[0].ID != ids[1] {
		t.Fatalf("retained %+v, want ids %v", got, ids[1:])
	}

	// TTL aging: advance past the hour; a sweep evicts the remainder.
	clk.Advance(2 * time.Hour)
	st.evictExpired()
	if st.evictedCount() != 3 {
		t.Fatalf("evicted = %d, want 3 after TTL sweep", st.evictedCount())
	}
	if got := st.list(""); len(got) != 0 {
		t.Fatalf("retained %+v, want none", got)
	}

	// Open (unresolved) alerts are never evicted, no matter their age.
	openID := mk(99)
	clk.Advance(48 * time.Hour)
	st.evictExpired()
	if got := st.list(""); len(got) != 1 || got[0].ID != openID {
		t.Fatalf("open alert evicted: %+v", got)
	}
	if st.raisedCount() != 4 {
		t.Fatalf("raised = %d, want 4", st.raisedCount())
	}
}

// TestServiceAlertRetention drives retention through the Service: the
// sweep path ages resolved alerts out and the stats/counters agree.
func TestServiceAlertRetention(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	svc := NewService(u, Config{
		Workers:           1,
		QueueSize:         64,
		IdleTimeout:       time.Minute,
		MaxResolvedAlerts: -1, // unbounded count; TTL only
		ResolvedAlertTTL:  30 * time.Minute,
		Clock:             clk.Now,
	})
	defer svc.Stop()

	// One session with an anomaly, closed out and confirmed.
	for pos := 0; pos < 8; pos++ {
		sql := normalStatement(pos)
		if pos == 5 {
			sql = anomalySQL
		}
		if err := svc.Ingest(Event{ClientID: "c", User: "app", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	svc.Drain()
	clk.Advance(2 * time.Minute)
	svc.CloseIdleNow()
	alerts := svc.Alerts("")
	if len(alerts) != 1 || !alerts[0].Final {
		t.Fatalf("alerts %+v, want one final", alerts)
	}
	if err := svc.Resolve(alerts[0].ID, StatusConfirmed); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.AlertsEvicted != 0 {
		t.Fatalf("premature eviction: %+v", st)
	}

	// Past the TTL, the idle sweep evicts the resolved alert.
	clk.Advance(31 * time.Minute)
	svc.CloseIdleNow()
	st := svc.Stats()
	if st.AlertsEvicted != 1 {
		t.Fatalf("evicted = %d, want 1", st.AlertsEvicted)
	}
	if got := svc.Alerts(""); len(got) != 0 {
		t.Fatalf("alerts after eviction %+v, want none", got)
	}
}

// TestServiceRetrainMetrics confirms the training instrumentation path:
// a background fine-tune populates the retrain histogram and epoch
// gauges (Service.retrain feeds them from the round's progress).
func TestServiceRetrainMetrics(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	svc := NewService(u, Config{
		Workers:       1,
		QueueSize:     64,
		IdleTimeout:   time.Minute,
		RetrainAfter:  2,
		RetrainEpochs: 2,
		Clock:         clk.Now,
	})
	for c := 0; c < 3; c++ {
		for pos := 0; pos < 6; pos++ {
			if err := svc.Ingest(Event{ClientID: fmt.Sprintf("c%d", c), User: "app", SQL: normalStatement(pos)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Drain()
	clk.Advance(2 * time.Minute)
	svc.CloseIdleNow()
	svc.Stop() // waits for the background fine-tune

	m := svc.metrics
	if got := m.retrainSeconds.Count(); got < 1 {
		t.Fatalf("retrain histogram count = %d, want >= 1", got)
	}
	if got := m.trainEpochs.Value(); got < 2 {
		t.Fatalf("train epochs = %d, want >= 2", got)
	}
	if m.trainWindowsPerSec.Value() <= 0 {
		t.Fatalf("windows/sec = %v, want > 0", m.trainWindowsPerSec.Value())
	}
	if st := svc.Stats(); st.Retrains < 1 {
		t.Fatalf("stats retrains = %d, want >= 1", st.Retrains)
	}
}
