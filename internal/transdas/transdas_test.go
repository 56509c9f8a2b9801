package transdas

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/nn"
)

func testConfig() Config {
	cfg := DefaultConfig(14)
	cfg.Hidden = 8
	cfg.Heads = 2
	cfg.Blocks = 2
	cfg.Window = 10
	cfg.TopP = 6
	cfg.Epochs = 25
	cfg.Dropout = 0
	cfg.MinContext = 2
	return cfg
}

// toySessions mimics the paper's heterogeneous access patterns with two
// user roles: type-A sessions interleave tasks over keys 1–6, type-B
// sessions tasks over keys 7–12. Key 13 never appears during training.
// An anomaly is a key from the *other* role injected mid-session — in
// isolation a perfectly normal statement, exactly the stealthy case the
// paper targets.
func toySessions(n int, rng *rand.Rand) [][]int {
	tasksA := [][]int{{1, 2, 3}, {4, 5, 6}, {1, 5}}
	tasksB := [][]int{{7, 8}, {9, 10, 11}, {12, 7}}
	var out [][]int
	for i := 0; i < n; i++ {
		tasks := tasksA
		if i%2 == 1 {
			tasks = tasksB
		}
		var s []int
		for len(s) < 14 {
			s = append(s, tasks[rng.Intn(len(tasks))]...)
		}
		out = append(out, s)
	}
	return out
}

// injectForeign inserts a key from the other role family at position
// pos of session i (type alternates with index parity).
func injectForeign(s []int, i, pos int) []int {
	inj := 9
	if i%2 == 1 {
		inj = 4
	}
	out := append([]int(nil), s[:pos]...)
	out = append(out, inj)
	return append(out, s[pos:]...)
}

func trainToy(t *testing.T) *Model {
	t.Helper()
	m := New(testConfig())
	rng := rand.New(rand.NewSource(7))
	res := m.Train(toySessions(40, rng), nil)
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("training loss did not decrease: %v -> %v", first, last)
	}
	return m
}

func TestExtractWindows(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ws := extractWindows(keys, 3, 1)
	// One window per transition: ends at t = 0..6.
	if len(ws) != 7 {
		t.Fatalf("got %d windows, want 7", len(ws))
	}
	// First window is the length-1 prefix [1] with target [2].
	if len(ws[0].keys) != 1 || ws[0].keys[0] != 1 || ws[0].targets[0] != 2 {
		t.Fatalf("window 0 = %+v", ws[0])
	}
	// A full window ending at t=4: input [3 4 5], targets [4 5 6].
	w4 := ws[4]
	if len(w4.keys) != 3 || w4.keys[0] != 3 || w4.keys[2] != 5 {
		t.Fatalf("window 4 keys %v", w4.keys)
	}
	if w4.targets[0] != 4 || w4.targets[2] != 6 {
		t.Fatalf("window 4 targets %v", w4.targets)
	}
	// Every transition appears exactly once as a final-position target.
	finals := map[int]int{}
	for _, w := range ws {
		finals[w.targets[len(w.targets)-1]]++
	}
	for k := 2; k <= 8; k++ {
		if finals[k] != 1 {
			t.Fatalf("final target %d covered %d times: %v", k, finals[k], finals)
		}
	}
	// Stride skips window ends.
	if got := len(extractWindows(keys, 3, 3)); got != 3 {
		t.Fatalf("stride-3 windows = %d, want 3", got)
	}
}

func TestExtractWindowsShortSession(t *testing.T) {
	if ws := extractWindows([]int{1}, 5, 5); ws != nil {
		t.Fatalf("singleton session should give no windows, got %v", ws)
	}
	ws := extractWindows([]int{1, 2}, 5, 5)
	if len(ws) != 1 || len(ws[0].keys) != 1 || ws[0].targets[0] != 2 {
		t.Fatalf("windows = %+v", ws)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Vocab = 1 },
		func(c *Config) { c.Hidden = 0 },
		func(c *Config) { c.Heads = 3 }, // 8 % 3 != 0
		func(c *Config) { c.Blocks = 0 },
		func(c *Config) { c.Window = 1 },
		func(c *Config) { c.TopP = 0 },
		func(c *Config) { c.Margin = -1 },
		func(c *Config) { c.Dropout = 1 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestTrainAndDetectToyGrammar(t *testing.T) {
	m := trainToy(t)
	rng := rand.New(rand.NewSource(99))

	normalFlags, abnormalFlags := 0, 0
	const trials = 20
	normals := toySessions(trials, rng)
	for i, normal := range normals {
		if m.IsAnomalous(normal) {
			normalFlags++
		}
		// Credential-stealing style anomaly: a statement that is normal
		// for the other role, injected mid-session.
		pos := 4 + rng.Intn(len(normal)-5)
		if m.IsAnomalous(injectForeign(normal, i, pos)) {
			abnormalFlags++
		}
	}
	if normalFlags > trials/4 {
		t.Errorf("false positives: %d/%d normal sessions flagged", normalFlags, trials)
	}
	if abnormalFlags < trials*3/4 {
		t.Errorf("false negatives: only %d/%d abnormal sessions flagged", abnormalFlags, trials)
	}
}

func TestDetectSessionReportsPositions(t *testing.T) {
	m := trainToy(t)
	// Family-B key 9 injected at position 5 of a type-A session.
	s := []int{1, 2, 3, 4, 5, 9, 6, 1, 2, 3}
	anoms := m.DetectSession(s)
	found := false
	for _, idx := range anoms {
		if idx == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected anomaly at index 5, got %v", anoms)
	}
}

func TestUnknownStatementIsAnomalous(t *testing.T) {
	m := trainToy(t)
	// PadKey (0) models a statement template never seen in training.
	s := []int{1, 2, 3, 0, 1, 2, 3}
	if !m.IsAnomalous(s) {
		t.Fatal("session containing an unknown statement must be flagged")
	}
	if rank := m.RankOf([]int{1, 2}, 0); rank != m.cfg.Vocab {
		t.Fatalf("PadKey rank = %d, want worst rank %d", rank, m.cfg.Vocab)
	}
}

func TestScoreNextShapeAndRange(t *testing.T) {
	m := New(testConfig())
	sims := m.NewScorer().ScoreBatchInto(nil, [][]int{[]int{1, 2, 3}})[0]
	if len(sims) != m.cfg.Vocab {
		t.Fatalf("len(sims) = %d, want %d", len(sims), m.cfg.Vocab)
	}
	if sims[0] != 0 {
		t.Fatal("k0 similarity must be 0")
	}
	for _, s := range sims[1:] {
		if s <= 0 || s >= 1 {
			t.Fatalf("similarity %v outside (0,1)", s)
		}
	}
}

func TestScoreNextTruncatesLongContext(t *testing.T) {
	m := New(testConfig())
	long := make([]int, 50)
	for i := range long {
		long[i] = 1 + i%5
	}
	short := long[len(long)-m.cfg.Window:]
	a := m.NewScorer().ScoreBatchInto(nil, [][]int{long})[0]
	b := m.NewScorer().ScoreBatchInto(nil, [][]int{short})[0]
	for k := range a {
		if math.Abs(a[k]-b[k]) > 1e-12 {
			t.Fatal("context beyond the window must be ignored")
		}
	}
}

func TestBestKeyRanksFirst(t *testing.T) {
	m := trainToy(t)
	ctx := []int{1, 2, 3, 4}
	sims := m.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]
	best := 1
	for k := 2; k < len(sims); k++ {
		if sims[k] > sims[best] {
			best = k
		}
	}
	if r := m.RankOf(ctx, best); r != 1 {
		t.Fatalf("best key rank = %d, want 1", r)
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() []float64 {
		m := New(testConfig())
		rng := rand.New(rand.NewSource(7))
		m.Train(toySessions(10, rng), nil)
		return m.NewScorer().ScoreBatchInto(nil, [][]int{[]int{1, 2, 3}})[0]
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestSaveLoadPreservesScores(t *testing.T) {
	m := trainToy(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctx := []int{1, 2, 3, 4, 5}
	a, b := m.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0], loaded.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0]
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("loaded model scores differ")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestParamBytesCountsNew: the size Load checks against its cap before
// New allocates is exactly what New allocates, with and without the
// position table.
func TestParamBytesCountsNew(t *testing.T) {
	for _, positional := range []bool{false, true} {
		cfg := DefaultConfig(7)
		cfg.Hidden, cfg.Blocks, cfg.Window, cfg.Positional = 6, 3, 5, positional
		n := 0
		for _, p := range New(cfg).params {
			n += len(p.Value.Data)
		}
		if got := cfg.paramBytes(); got != float64(8*n) {
			t.Fatalf("positional=%v: paramBytes %v, New allocates %d", positional, got, 8*n)
		}
	}
}

func TestFineTuneAdaptsToNewPattern(t *testing.T) {
	m := trainToy(t)
	// A new normal statement (key 13) appears after deployment
	// (concept drift) inside type-A sessions.
	driftRng := rand.New(rand.NewSource(5))
	var drift [][]int
	for i := 0; i < 30; i++ {
		s := toySessions(1, driftRng)[0]
		s = append(s, 13, 13, 13, 13)
		drift = append(drift, s)
	}
	// Judge the drifted key in a context shaped like the drifted
	// sessions: a type-A prefix followed by the new statement.
	ctx := append(toySessions(1, rand.New(rand.NewSource(11)))[0], 13, 13)
	beforeRank := m.RankOf(ctx, 13)
	before := freeze(m, [][]int{ctx})
	beforeSim := before.scores[0][13]
	tuned, _ := m.FineTune(drift, 15, nil)
	requireUnchanged(t, m, [][]int{ctx}, before)
	afterRank := tuned.RankOf(ctx, 13)
	afterSim := tuned.NewScorer().ScoreBatchInto(nil, [][]int{ctx})[0][13]
	if afterRank > beforeRank {
		t.Fatalf("fine-tuning should not worsen the drifted key's rank: %d -> %d", beforeRank, afterRank)
	}
	// The drifted key must join the high-similarity block of plausible
	// next operations (the family now has 7 members, so its rank can be
	// at most 7 but its similarity must be near the top of the block).
	if afterSim < 0.9 {
		t.Fatalf("drifted key similarity %v -> %v; expected > 0.9 after fine-tune", beforeSim, afterSim)
	}
}

func TestVariantsConstruct(t *testing.T) {
	for _, v := range []struct {
		name string
		mut  func(*Config)
	}{
		{"base", func(c *Config) { c.Positional = true; c.Mask = nn.MaskFuture; c.Objective = ObjectiveCEOnly }},
		{"embedding", func(c *Config) { c.Mask = nn.MaskFuture; c.Objective = ObjectiveCEOnly }},
		{"masking", func(c *Config) { c.Positional = true; c.Objective = ObjectiveCEOnly }},
		{"objective", func(c *Config) { c.Positional = true; c.Mask = nn.MaskFuture }},
		{"full-attention", func(c *Config) { c.Mask = nn.MaskFull }},
	} {
		cfg := testConfig()
		cfg.Epochs = 2
		v.mut(&cfg)
		m := New(cfg)
		rng := rand.New(rand.NewSource(1))
		res := m.Train(toySessions(5, rng), nil)
		if res.Windows == 0 {
			t.Errorf("%s: no training windows", v.name)
		}
		if m.IsAnomalous([]int{1, 2, 3}) {
			// Not asserting detection quality here, just that the
			// variant runs end to end.
			_ = v
		}
	}
}

// TestAttentionWeightsShape: AttentionWeights returns one L x L matrix
// per head for L keys, and given more keys than a window holds it reads
// the first cfg.Window of them, for a positional model (whose table has
// only Window rows) as for any other.
func TestAttentionWeightsShape(t *testing.T) {
	m := New(testConfig())
	ws := m.AttentionWeights([]int{1, 2, 3, 4})
	if len(ws) != m.cfg.Heads {
		t.Fatalf("got %d head matrices, want %d", len(ws), m.cfg.Heads)
	}
	if ws[0].Rows != 4 || ws[0].Cols != 4 {
		t.Fatalf("weights shape %dx%d, want 4x4", ws[0].Rows, ws[0].Cols)
	}
	for _, positional := range []bool{true, false} {
		cfg := testConfig()
		cfg.Positional = positional
		m := New(cfg)
		keys := make([]int, cfg.Window+3)
		for i := range keys {
			keys[i] = 1 + i%(cfg.Vocab-1)
		}
		ws := m.AttentionWeights(keys)
		want := m.AttentionWeights(keys[:cfg.Window])
		for h, w := range ws {
			if w.Rows != cfg.Window || w.Cols != cfg.Window {
				t.Fatalf("positional=%v: weights shape %dx%d, want %dx%d", positional, w.Rows, w.Cols, cfg.Window, cfg.Window)
			}
			for i, v := range w.Data {
				if v != want[h].Data[i] {
					t.Fatalf("positional=%v: head %d differs from the first window's weights", positional, h)
				}
			}
		}
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := testConfig()
	cfg.Epochs = 3
	m := New(cfg)
	rng := rand.New(rand.NewSource(2))
	calls := 0
	m.Train(toySessions(3, rng), func(epoch int, loss float64) { calls++ })
	if calls != 3 {
		t.Fatalf("progress called %d times, want 3", calls)
	}
}
