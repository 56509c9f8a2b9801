package detect

import (
	"testing"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/workload"
)

func trainedUCAD(t *testing.T) (*core.UCAD, *workload.Generator) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Model.Hidden = 10
	cfg.Model.Heads = 2
	cfg.Model.Blocks = 2
	cfg.Model.Window = 24
	cfg.Model.TopP = 8
	cfg.Model.Epochs = 6
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 3
	cfg.SkipClean = true
	g := workload.NewGenerator(workload.ScenarioI(), 11)
	u, err := core.Train(cfg, g.GenerateSessions(60), nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, g
}

// TestRankBatchMatchesRankOf pins the batched rank surface to the
// per-operation one: one stacked forward pass over a micro-batch must
// produce the same ranks as sequential Model.RankOf calls, and the
// returned slice must reuse the caller's buffer when large enough.
func TestRankBatchMatchesRankOf(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)
	s := g.NewSession()
	keys := make([]int, len(s.Ops))
	for j, op := range s.Ops {
		keys[j] = u.Vocab.Key(op.SQL)
	}
	if len(keys) < 5 {
		t.Skip("session too short")
	}
	var ctxs [][]int
	var targets []int
	for i := 1; i < len(keys); i++ {
		ctxs = append(ctxs, keys[:i])
		targets = append(targets, keys[i])
	}
	dst := make([]int, 0, len(ctxs))
	got := o.RankBatch(dst, ctxs, targets)
	if &got[0] != &dst[:1][0] {
		t.Fatal("RankBatch did not reuse the caller's buffer")
	}
	for i := range ctxs {
		if want := u.Model.RankOf(ctxs[i], targets[i]); got[i] != want {
			t.Fatalf("position %d: RankBatch %d vs RankOf %d", i, got[i], want)
		}
	}
}
