package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/ucad/ucad/internal/sqlnorm"
)

// otherTemplates is a workload whose vocabulary shares no template with
// normalTemplates.
var otherTemplates = []func(i int) string{
	func(i int) string { return fmt.Sprintf("SELECT * FROM orders WHERE oid = %d", i) },
	func(i int) string { return fmt.Sprintf("SELECT * FROM items WHERE iid = %d", i) },
	func(i int) string { return fmt.Sprintf("INSERT INTO carts (oid, iid) VALUES (%d, %d)", i, i+1) },
	func(i int) string { return fmt.Sprintf("DELETE FROM carts WHERE oid = %d", i) },
}

// finalAlert returns the final alert of session id, or nil.
func finalAlert(s *Service, id string) *Alert {
	for _, a := range s.Alerts("") {
		if a.SessionID == id && a.Final {
			return &a
		}
	}
	return nil
}

// A session closed under model A is judged by A on the keys A gave it,
// even when a model with another vocabulary is installed between its
// close and its verdict: under the new vocabulary every statement would
// be unknown and flag.
func TestCloseoutRanksWithClosingModel(t *testing.T) {
	a, b := testUCAD(t), toyUCAD(t, otherTemplates)
	s := NewService(a, Config{Workers: 1, SweepEvery: -1})
	s.Start()
	defer s.Stop()
	for p := 0; p < 12; p++ {
		sql := normalStatement(p)
		if p == 8 {
			sql = anomalySQL
		}
		if err := s.Ingest(Event{ClientID: "c", User: "app", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	closed := s.closeAllLogged(false)
	if len(closed) != 1 {
		t.Fatalf("closed %d sessions, want 1", len(closed))
	}
	if err := s.SwapModel(b); err != nil {
		t.Fatal(err)
	}
	s.finalize(closed)
	sess := closed[0].Session
	want := a.DetectSession(sess)
	if !slices.Equal(want, []int{8}) {
		t.Fatalf("model A flags %v, want [8]", want)
	}
	if under := b.DetectSession(sess); len(under) <= 1 {
		t.Fatalf("model B flags %v: the case does not tell the models apart", under)
	}
	if al := finalAlert(s, sess.ID); al == nil || !slices.Equal(al.Positions, want) {
		t.Fatalf("final alert %+v, want positions %v (model A's verdict)", al, want)
	}
}

// Without a swap, close-out verdicts are core.UCAD.DetectSession's
// (which lexes every statement again) over a few hundred generated
// sessions, unknown statements included, under a top-p tight enough
// that in-vocabulary statements flag by context too.
func TestCloseoutMatchesDetectSession(t *testing.T) {
	u := toyUCADTopP(t, normalTemplates, 2)
	s := NewService(u, Config{Workers: 2, SweepEvery: -1})
	s.Start()
	defer s.Stop()
	rng := rand.New(rand.NewSource(5))
	unknown := []string{anomalySQL, "DROP TABLE users", "SELECT * FROM salaries WHERE eid = 9"}
	for c := 0; c < 300; c++ {
		client := fmt.Sprintf("client-%d", c)
		for p, n := 0, 1+rng.Intn(20); p < n; p++ {
			sql := normalStatement(rng.Intn(64))
			if rng.Intn(10) == 0 {
				sql = unknown[rng.Intn(len(unknown))]
			}
			if err := s.Ingest(Event{ClientID: client, User: "app", SQL: sql}); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
	}
	mid := map[string][]int{} // mid-session flags, already on the alerts
	for _, a := range s.Alerts("") {
		mid[a.SessionID] = a.Positions
	}
	closed := s.closeAllLogged(false)
	s.finalize(closed)
	flagged, contextual := 0, 0
	for _, c := range closed {
		want := u.DetectSession(c.Session)
		if len(want) > 0 {
			flagged++
		}
		for _, p := range want {
			if u.Vocab.Key(c.Session.Ops[p].SQL) != sqlnorm.UnknownKey {
				contextual++
			}
		}
		union := append(slices.Clone(mid[c.Session.ID]), want...)
		slices.Sort(union)
		union = slices.Compact(union)
		al := finalAlert(s, c.Session.ID)
		switch {
		case len(union) == 0 && al != nil:
			t.Fatalf("session %s: alert %+v for a session nothing flagged", c.Session.ID, al)
		case len(union) > 0 && (al == nil || !slices.Equal(al.Positions, union)):
			t.Fatalf("session %s: final alert %+v, want positions %v (close-out %v, mid-session %v)",
				c.Session.ID, al, union, want, mid[c.Session.ID])
		}
	}
	if len(closed) != 300 || s.flagged.Load() != int64(flagged) || s.verifiedCount() != 300-flagged {
		t.Fatalf("closed %d, flagged %d, verified %d; DetectSession flags %d of 300",
			len(closed), s.flagged.Load(), s.verifiedCount(), flagged)
	}
	if flagged == 0 || flagged == 300 || contextual == 0 {
		t.Fatalf("DetectSession flags %d of 300 sessions, %d in-vocabulary positions: the case is degenerate", flagged, contextual)
	}
}
