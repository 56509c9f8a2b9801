package preprocess

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ucad/ucad/internal/session"
)

func TestNGramSet(t *testing.T) {
	set := NGramSet([]int{1, 2, 3, 1, 2}, 2)
	// Grams: (1,2) (2,3) (3,1) (1,2) -> 3 distinct.
	if len(set) != 3 {
		t.Fatalf("got %d grams, want 3", len(set))
	}
	short := NGramSet([]int{5}, 2)
	if len(short) != 1 {
		t.Fatalf("short sequence grams = %d, want 1", len(short))
	}
	if len(NGramSet(nil, 2)) != 0 {
		t.Fatal("empty sequence should have no grams")
	}
}

func TestEncodeGramCollisionFree(t *testing.T) {
	// Keys around the base-128 boundary must stay distinct.
	if encodeGram([]int{128, 1}) == encodeGram([]int{1, 128}) {
		t.Fatal("gram encoding collision")
	}
	if encodeGram([]int{127}) == encodeGram([]int{128}) {
		t.Fatal("gram encoding collision at boundary")
	}
}

func TestJaccard(t *testing.T) {
	a := NGramSet([]int{1, 2, 3}, 2) // (1,2) (2,3)
	b := NGramSet([]int{1, 2, 4}, 2) // (1,2) (2,4)
	if got := Jaccard(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if Jaccard(a, a) != 1 {
		t.Fatal("self-similarity must be 1")
	}
	if Jaccard(map[string]struct{}{}, map[string]struct{}{}) != 1 {
		t.Fatal("two empty sets are identical")
	}
}

// Property: Jaccard is symmetric and within [0,1].
func TestJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := NGramSet(toKeys(xs), 2)
		b := NGramSet(toKeys(ys), 2)
		s1, s2 := Jaccard(a, b), Jaccard(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func toKeys(xs []uint8) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

func TestDBSCANTwoClusters(t *testing.T) {
	// Points on a line: cluster at 0..4, cluster at 100..104, outlier 50.
	pts := []float64{0, 1, 2, 3, 4, 100, 101, 102, 103, 104, 50}
	labels := DBSCAN(len(pts), func(i, j int) float64 {
		return math.Abs(pts[i] - pts[j])
	}, 1.5, 3)
	if labels[10] != Noise {
		t.Fatalf("outlier label = %d, want Noise", labels[10])
	}
	if labels[0] == labels[5] {
		t.Fatal("the two groups must be distinct clusters")
	}
	for i := 1; i < 5; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("first group split: %v", labels)
		}
	}
	for i := 6; i < 10; i++ {
		if labels[i] != labels[5] {
			t.Fatalf("second group split: %v", labels)
		}
	}
}

func TestDBSCANBorderPoint(t *testing.T) {
	// 0,1,2 form a dense core; 3.2 is reachable from 2 but not core.
	pts := []float64{0, 1, 2, 3.2}
	labels := DBSCAN(len(pts), func(i, j int) float64 {
		return math.Abs(pts[i] - pts[j])
	}, 1.3, 3)
	if labels[3] != labels[2] || labels[3] == Noise {
		t.Fatalf("border point not absorbed: %v", labels)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pts := []float64{0, 10, 20}
	labels := DBSCAN(len(pts), func(i, j int) float64 {
		return math.Abs(pts[i] - pts[j])
	}, 1, 2)
	for _, l := range labels {
		if l != Noise {
			t.Fatalf("labels = %v", labels)
		}
	}
}

// mkSession builds a tokenized session with the given keys.
func mkSession(keys ...int) *session.Session {
	s := &session.Session{}
	for _, k := range keys {
		s.Ops = append(s.Ops, session.Operation{Key: k})
	}
	return s
}

func repeatKeys(base []int, n int) []int {
	var out []int
	for len(out) < n {
		out = append(out, base...)
	}
	return out[:n]
}

func TestCleanRemovesRareAndShort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sessions []*session.Session
	// Pattern A: 12 sessions.
	for i := 0; i < 12; i++ {
		sessions = append(sessions, mkSession(repeatKeys([]int{1, 2, 3}, 12)...))
	}
	// Pattern B: 8 sessions.
	for i := 0; i < 8; i++ {
		sessions = append(sessions, mkSession(repeatKeys([]int{7, 8}, 12)...))
	}
	// One very short pattern-A session (same grams, dropped by the
	// length rule rather than as noise).
	sessions = append(sessions, mkSession(1, 2, 3))
	// Two noisy one-off sessions (DBSCAN noise).
	sessions = append(sessions, mkSession(repeatKeys([]int{40, 41, 42, 43}, 12)...))
	sessions = append(sessions, mkSession(repeatKeys([]int{50, 51, 52, 53}, 12)...))

	cfg := DefaultCleanConfig()
	kept, rep := Clean(sessions, cfg, rng)
	if rep.NoiseDropped < 2 {
		t.Fatalf("noise dropped = %d, want >= 2", rep.NoiseDropped)
	}
	if rep.ShortDropped < 1 {
		t.Fatalf("short dropped = %d, want >= 1", rep.ShortDropped)
	}
	for _, s := range kept {
		if len(s.Ops) <= 2 {
			t.Fatal("short session survived cleaning")
		}
		k := s.Ops[0].Key
		if k != 1 && k != 7 {
			t.Fatalf("unexpected surviving pattern starting with key %d", k)
		}
	}
	if rep.Output != len(kept) {
		t.Fatal("report output mismatch")
	}
}

func TestCleanBalancesLargeClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sessions []*session.Session
	for i := 0; i < 40; i++ { // dominant pattern
		sessions = append(sessions, mkSession(repeatKeys([]int{1, 2, 3}, 10)...))
	}
	for i := 0; i < 6; i++ { // small but valid pattern
		sessions = append(sessions, mkSession(repeatKeys([]int{7, 8, 9}, 10)...))
	}
	for i := 0; i < 6; i++ { // third pattern to define the median
		sessions = append(sessions, mkSession(repeatKeys([]int{11, 12}, 10)...))
	}
	kept, rep := Clean(sessions, DefaultCleanConfig(), rng)
	if rep.BalancedSampled == 0 {
		t.Fatal("expected under-sampling of the dominant cluster")
	}
	counts := map[int]int{}
	for _, s := range kept {
		counts[s.Ops[0].Key]++
	}
	if counts[1] != rep.MedianCluster {
		t.Fatalf("dominant cluster kept %d, want median %d", counts[1], rep.MedianCluster)
	}
	if counts[7] == 0 || counts[11] == 0 {
		t.Fatalf("minority patterns lost: %v", counts)
	}
}

func TestCleanEmptyInput(t *testing.T) {
	kept, rep := Clean(nil, DefaultCleanConfig(), rand.New(rand.NewSource(1)))
	if kept != nil || rep.Input != 0 {
		t.Fatalf("kept=%v rep=%+v", kept, rep)
	}
}

func TestCleanDeterministicForFixedSeed(t *testing.T) {
	build := func() []*session.Session {
		var ss []*session.Session
		for i := 0; i < 30; i++ {
			ss = append(ss, mkSession(repeatKeys([]int{1, 2, 3}, 10)...))
		}
		for i := 0; i < 5; i++ {
			ss = append(ss, mkSession(repeatKeys([]int{7, 8}, 10)...))
		}
		return ss
	}
	a, _ := Clean(build(), DefaultCleanConfig(), rand.New(rand.NewSource(9)))
	b, _ := Clean(build(), DefaultCleanConfig(), rand.New(rand.NewSource(9)))
	if len(a) != len(b) {
		t.Fatalf("non-deterministic clean: %d vs %d", len(a), len(b))
	}
}
