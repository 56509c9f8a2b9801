package detect

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/transdas"
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

// TestOnlineConcurrentProcessRetrain interleaves scoring (DetectSession
// and RankBatch) with a FineTune round from independent goroutines; the
// model RWMutex must keep this race-free (run under -race), and every
// rank a batch returns stays within [1, Vocab].
func TestOnlineConcurrentProcessRetrain(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)
	vocab := u.Vocab.Size()
	pool := g.GenerateSessions(6)
	sessions := g.GenerateSessions(8)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sessions); i += 4 {
				o.DetectSession(sessions[i])
				keys := make([]int, len(sessions[i].Ops))
				for j, op := range sessions[i].Ops {
					keys[j] = u.Vocab.Key(op.SQL)
				}
				if len(keys) <= 4 {
					continue
				}
				for _, r := range o.RankBatch(nil, [][]int{keys[:3], keys[:4]}, keys[3:5]) {
					if r < 1 || r > vocab {
						errs <- fmt.Sprintf("rank %d outside [1, %d]", r, vocab)
						return
					}
				}
			}
		}(w)
	}
	var res transdas.TrainResult
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = o.FineTune(pool, 1, nil)
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if len(res.EpochLoss) != 1 || res.Windows == 0 {
		t.Fatalf("fine-tune round %+v, want one epoch over some windows", res)
	}
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

// TestOnlineConcurrentProcess runs close-out verdicts from four
// goroutines through the read-locked DetectSession: every verdict must
// equal the sequential one (run under -race).
func TestOnlineConcurrentProcess(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)
	sessions := g.GenerateSessions(12)
	want := make([][]int, len(sessions))
	for i, s := range sessions {
		want[i] = u.DetectSession(s)
	}
	got := make([][]int, len(sessions))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sessions); i += 4 {
				got[i] = o.DetectSession(sessions[i])
			}
		}(w)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent verdicts %v, sequential %v", got, want)
	}
}
