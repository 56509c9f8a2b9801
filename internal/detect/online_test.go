package detect

import (
	"testing"
	"time"

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

func TestOnlineLoop(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)

	var alerts []*Alert
	normals, flagged := 0, 0
	for i := 0; i < 10; i++ {
		s := g.NewSession()
		if a := o.Process(s); a != nil {
			alerts = append(alerts, a)
			flagged++
		} else {
			normals++
		}
	}
	// Inject an A2 anomaly: it should usually be flagged.
	anom := g.StealCredential(g.NewSession())
	anomAlert := o.Process(anom)

	processed, flaggedCount := o.Stats()
	if processed != 11 {
		t.Fatalf("processed = %d", processed)
	}
	if anomAlert != nil && len(anomAlert.Positions) == 0 {
		t.Fatal("alert without positions")
	}
	returned := len(alerts)
	if anomAlert != nil {
		returned++
	}
	if flaggedCount != returned {
		t.Fatalf("flagged %d but %d alerts returned", flaggedCount, returned)
	}

	// Expert reviews: false alarms rejoin the training pool; the true
	// anomaly (never resolved as one) does not.
	before := o.VerifiedCount()
	for _, a := range alerts {
		o.ResolveFalseAlarm(a)
	}
	if o.VerifiedCount() != before+len(alerts) {
		t.Fatalf("verified pool = %d, want %d", o.VerifiedCount(), before+len(alerts))
	}
	if normals+len(alerts) != o.VerifiedCount() {
		t.Fatalf("verified pool %d != normals %d + false alarms %d",
			o.VerifiedCount(), normals, len(alerts))
	}

	absorbed := o.Retrain(1)
	if absorbed != normals+len(alerts) {
		t.Fatalf("retrain absorbed %d, want %d", absorbed, normals+len(alerts))
	}
	if o.VerifiedCount() != 0 {
		t.Fatal("verified pool must clear after retrain")
	}
	if o.Retrain(1) != 0 {
		t.Fatal("retrain with empty pool must be a no-op")
	}
}

// TestTrainHooksFireOnRetrain checks the training instrumentation
// contract: Epoch fires once per fine-tune epoch with the epoch loss,
// Done fires once per round with the absorbed pool size, window count
// and a positive wall-clock duration.
func TestTrainHooksFireOnRetrain(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)
	var epochs []float64
	var dones []RetrainStats
	o.SetTrainHooks(TrainHooks{
		Epoch: func(epoch int, loss float64, took time.Duration) { epochs = append(epochs, loss) },
		Done:  func(st RetrainStats) { dones = append(dones, st) },
	})

	// An empty pool must not fire Done.
	if o.Retrain(2) != 0 || len(dones) != 0 {
		t.Fatal("empty-pool retrain fired hooks")
	}

	for _, s := range g.GenerateSessions(4) {
		o.Process(s)
	}
	pool := o.VerifiedCount()
	if pool == 0 {
		t.Skip("every generated session was flagged; nothing to retrain")
	}
	if absorbed := o.Retrain(2); absorbed != pool {
		t.Fatalf("absorbed %d, want %d", absorbed, pool)
	}
	if len(epochs) != 2 {
		t.Fatalf("Epoch hook fired %d times, want 2", len(epochs))
	}
	if len(dones) != 1 {
		t.Fatalf("Done hook fired %d times, want 1", len(dones))
	}
	st := dones[0]
	if st.Sessions != pool || st.Epochs != 2 || st.Windows == 0 {
		t.Fatalf("RetrainStats %+v, want sessions=%d epochs=2 windows>0", st, pool)
	}
	if st.Duration <= 0 {
		t.Fatalf("duration %v, want > 0", st.Duration)
	}
	if st.FinalLoss != epochs[len(epochs)-1] {
		t.Fatalf("FinalLoss %v != last epoch loss %v", st.FinalLoss, epochs[len(epochs)-1])
	}
	if st.WindowsPerSecond() <= 0 {
		t.Fatalf("windows/sec %v, want > 0", st.WindowsPerSecond())
	}
}

// TestOnlineConcurrentProcessRetrain interleaves scoring and
// fine-tuning from independent goroutines; the model RWMutex must keep
// this race-free (run under -race).
func TestOnlineConcurrentProcessRetrain(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)
	// Seed the verified pool so the first Retrain has work.
	for _, s := range g.GenerateSessions(6) {
		o.Process(s)
	}
	sessions := g.GenerateSessions(8)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(sessions); i += 4 {
				o.Process(sessions[i])
				keys := make([]int, len(sessions[i].Ops))
				for j, op := range sessions[i].Ops {
					keys[j] = u.Vocab.Key(op.SQL)
				}
				if len(keys) > 4 {
					o.RankBatch(nil, [][]int{keys[:3], keys[:4]}, keys[3:5])
				}
			}
		}(w)
	}
	go func() {
		defer func() { done <- struct{}{} }()
		o.Retrain(1)
	}()
	for w := 0; w < 5; w++ {
		<-done
	}
	processed, _ := o.Stats()
	if processed != 14 {
		t.Fatalf("processed = %d, want 14", processed)
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

func TestOnlineConcurrentProcess(t *testing.T) {
	u, g := trainedUCAD(t)
	o := NewOnline(u)
	sessions := g.GenerateSessions(12)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(sessions); i += 4 {
				o.Process(sessions[i])
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	processed, _ := o.Stats()
	if processed != 12 {
		t.Fatalf("processed = %d, want 12", processed)
	}
}
