package preprocess

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ucad/ucad/internal/session"
)

// Property: DBSCAN labels are Noise or dense cluster ids 0..k-1, and
// every non-noise cluster has at least one core point.
func TestDBSCANLabelValidity(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		pts := make([]float64, len(raw))
		for i, r := range raw {
			pts[i] = float64(r)
		}
		const eps, minPts = 3.0, 3
		labels := DBSCAN(len(pts), func(i, j int) float64 {
			d := pts[i] - pts[j]
			if d < 0 {
				d = -d
			}
			return d
		}, eps, minPts)
		maxLabel := -1
		for _, l := range labels {
			if l < Noise {
				return false
			}
			if l > maxLabel {
				maxLabel = l
			}
		}
		// Labels are contiguous from 0.
		seen := make([]bool, maxLabel+1)
		for _, l := range labels {
			if l >= 0 {
				seen[l] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clean never outputs more sessions than it was given and
// never invents sessions.
func TestCleanOutputSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(raw [][]uint8) bool {
		var sessions []*session.Session
		for _, r := range raw {
			if len(r) == 0 {
				continue
			}
			s := &session.Session{}
			for _, k := range r {
				s.Ops = append(s.Ops, session.Operation{Key: int(k)%10 + 1})
			}
			sessions = append(sessions, s)
		}
		kept, rep := Clean(sessions, DefaultCleanConfig(), rng)
		if len(kept) > len(sessions) || rep.Output != len(kept) {
			return false
		}
		in := map[*session.Session]bool{}
		for _, s := range sessions {
			in[s] = true
		}
		for _, s := range kept {
			if !in[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
