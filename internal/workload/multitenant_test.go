package workload

import (
	"reflect"
	"testing"
)

// TestScenarioSourceAnomalies: the scenario source honors the anomaly
// rate and produces complete sessions.
func TestScenarioSourceAnomalies(t *testing.T) {
	clean := NewScenarioSource(ScenarioI(), 11, 0)
	for i := 0; i < 5; i++ {
		s := clean.NextSession()
		if s.Anomalous {
			t.Fatal("anomalyProb=0 produced an anomalous session")
		}
		if len(s.Statements) < 4 || s.ClientID == "" || s.User == "" || s.Addr == "" {
			t.Fatalf("session: %+v", s)
		}
	}
	dirty := NewScenarioSource(ScenarioI(), 11, 1)
	for i := 0; i < 5; i++ {
		if s := dirty.NextSession(); !s.Anomalous {
			t.Fatal("anomalyProb=1 produced a normal session")
		}
	}
}

// TestMultiGenInterleaving: the combined stream covers every tenant,
// interleaves them, keeps each client id on one tenant with its events
// in session order, and is deterministic for a fixed seed.
func TestMultiGenInterleaving(t *testing.T) {
	stream := func() []TenantEvent {
		// Session ids derive from the spec name: the third tenant's must
		// differ from s2's for the one-tenant-per-client check below.
		wide := ScenarioII(1)
		wide.Name = "scenario-ii-wide"
		m := NewMultiGen(99,
			TenantStream{Tenant: "s1", Source: NewScenarioSource(ScenarioI(), 1, 0.1)},
			TenantStream{Tenant: "s2", Source: NewScenarioSource(ScenarioII(0.5), 2, 0.1)},
			TenantStream{Tenant: "s3", Source: NewScenarioSource(wide, 3, 0.1)},
		)
		events := make([]TenantEvent, 600)
		for i := range events {
			events[i] = m.Next()
		}
		return events
	}
	events := stream()

	seen := map[string]int{}
	switches := 0
	clientTenant := map[string]string{}
	lastSQL := map[string][]string{}
	for i, ev := range events {
		seen[ev.Tenant]++
		if i > 0 && events[i-1].Tenant != ev.Tenant {
			switches++
		}
		if prev, ok := clientTenant[ev.ClientID]; ok && prev != ev.Tenant {
			t.Fatalf("client %q appeared on tenants %q and %q", ev.ClientID, prev, ev.Tenant)
		}
		clientTenant[ev.ClientID] = ev.Tenant
		lastSQL[ev.ClientID] = append(lastSQL[ev.ClientID], ev.SQL)
		if ev.SQL == "" || ev.User == "" {
			t.Fatalf("event %d incomplete: %+v", i, ev)
		}
	}
	for _, tenant := range []string{"s1", "s2", "s3"} {
		if seen[tenant] == 0 {
			t.Fatalf("tenant %q never emitted (%v)", tenant, seen)
		}
	}
	if switches < 50 {
		t.Fatalf("stream barely interleaves: %d tenant switches in 600 events", switches)
	}

	// SessionEnd closes exactly the clients whose streams are complete.
	ended := map[string]bool{}
	for _, ev := range events {
		if ended[ev.ClientID] {
			t.Fatalf("client %q emitted after SessionEnd", ev.ClientID)
		}
		if ev.SessionEnd {
			ended[ev.ClientID] = true
		}
	}

	// Determinism: an identically seeded generator replays the stream.
	if again := stream(); !reflect.DeepEqual(events, again) {
		t.Fatal("identically seeded MultiGen diverged")
	}
}
