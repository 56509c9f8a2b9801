package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/workload"
)

// smallConfig keeps end-to-end training inside test budgets.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Model.Hidden = 10
	cfg.Model.Heads = 2
	cfg.Model.Blocks = 2
	cfg.Model.Window = 24
	cfg.Model.TopP = 8
	cfg.Model.Epochs = 8
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 3
	// The tiny training sets in tests make DBSCAN cleaning too eager.
	cfg.SkipClean = true
	return cfg
}

func trainSmall(t *testing.T) (*UCAD, *workload.Generator, *workload.Suite) {
	t.Helper()
	g := workload.NewGenerator(workload.ScenarioI(), 3)
	suite := g.BuildSuite(80)
	u, err := Train(smallConfig(), suite.Train, nil)
	if err != nil {
		t.Fatal(err)
	}
	return u, g, suite
}

func TestTrainAndDetectEndToEnd(t *testing.T) {
	u, _, suite := trainSmall(t)
	fp := 0
	for _, s := range suite.Normal["V1"] {
		if u.IsAnomalous(s) {
			fp++
		}
	}
	tp := 0
	for _, s := range suite.Abnormal["A2"] {
		if u.IsAnomalous(s) {
			tp++
		}
	}
	n := len(suite.Normal["V1"])
	if fp > n/2 {
		t.Errorf("FP = %d of %d normal sessions", fp, n)
	}
	if tp < len(suite.Abnormal["A2"])*6/10 {
		t.Errorf("TP = %d of %d A2 sessions", tp, len(suite.Abnormal["A2"]))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(smallConfig(), nil, nil); err == nil {
		t.Fatal("expected error for empty training set")
	}
	g := workload.NewGenerator(workload.ScenarioI(), 4)
	bad := smallConfig()
	bad.Model.Heads = 3 // 10 % 3 != 0
	if _, err := Train(bad, g.GenerateSessions(5), nil); err == nil {
		t.Fatal("expected model validation error")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	u, g, _ := trainSmall(t)
	var buf bytes.Buffer
	if err := u.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := g.NewSession()
	a, b := u.DetectSession(probe), loaded.DetectSession(probe)
	if len(a) != len(b) {
		t.Fatalf("loaded detector disagrees: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loaded detector disagrees: %v vs %v", a, b)
		}
	}
}

// TestSaveLoadThroughFile round-trips through a real file. Unlike
// bytes.Buffer, *os.File does not implement io.ByteReader, so this
// exercises the wrapped-reader path: without it each gob decoder
// buffers past its own section and the next one misaligns.
func TestSaveLoadThroughFile(t *testing.T) {
	u, g, _ := trainSmall(t)
	path := filepath.Join(t.TempDir(), "ucad.model")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	loaded, err := Load(rf)
	if err != nil {
		t.Fatal(err)
	}
	probe := g.NewSession()
	a, b := u.DetectSession(probe), loaded.DetectSession(probe)
	if len(a) != len(b) {
		t.Fatalf("file-loaded detector disagrees: %v vs %v", a, b)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("nope")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestTrainFromLog(t *testing.T) {
	g := workload.NewGenerator(workload.ScenarioI(), 6)
	sessions := g.GenerateSessions(30)
	var buf bytes.Buffer
	if err := session.WriteLog(&buf, session.Flatten(sessions)); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Model.Epochs = 1
	u, err := TrainFromLog(cfg, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Vocab.Size() < 10 {
		t.Fatalf("vocabulary too small: %d", u.Vocab.Size())
	}
}

func TestCleaningPipelineRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipClean = false
	cfg.Clean.MinPts = 2
	cfg.Clean.Eps = 0.9
	cfg.Model.Epochs = 1
	g := workload.NewGenerator(workload.ScenarioI(), 7)
	u, err := Train(cfg, g.GenerateSessions(40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Report.Input != 40 {
		t.Fatalf("clean report input = %d", u.Report.Input)
	}
	if u.Report.Output == 0 {
		t.Fatal("cleaning dropped everything")
	}
}

func TestDetectorAdapter(t *testing.T) {
	cfg := transdas.DefaultConfig(2)
	cfg.Hidden = 8
	cfg.Heads = 2
	cfg.Blocks = 2
	cfg.Window = 10
	cfg.TopP = 6
	cfg.Epochs = 10
	cfg.Dropout = 0
	d := NewDetector(cfg)
	if d.Name() != "UCAD" {
		t.Fatalf("name = %q", d.Name())
	}
	d.DisplayName = "Trans-DAS-variant"
	if d.Name() != "Trans-DAS-variant" {
		t.Fatal("display name override broken")
	}
	// Two role families so the clamped top-p (vocab-2 = 4) can separate
	// in-family keys from the rest.
	train := [][]int{
		{1, 2, 3, 1, 2, 3, 1, 2, 3},
		{4, 5, 4, 5, 4, 5, 4, 5},
		{2, 3, 1, 2, 3, 1, 2, 3, 1},
		{4, 5, 4, 5, 4, 5},
	}
	d.Fit(train)
	if d.Model() == nil {
		t.Fatal("model not fitted")
	}
	if d.Flag([]int{1, 2, 3, 1, 2, 3}) {
		t.Error("in-grammar session flagged")
	}
	if !d.Flag([]int{1, 2, 3, 0, 1, 2}) {
		t.Error("unknown key not flagged")
	}
	empty := NewDetector(cfg)
	empty.Fit(nil)
	if empty.Flag([]int{1, 2}) {
		t.Error("unfitted detector must not flag")
	}
}

// TestFineTune: a fine-tune round returns a copy that shares the
// vocabulary, whose false-positive rate stays bounded, and leaves the
// original bit-unchanged — its saved weights and its scores at both
// precisions (the float32 ones read its float32 snapshot).
func TestFineTune(t *testing.T) {
	u, g, _ := trainSmall(t)
	var ctxs [][]int
	for _, s := range g.GenerateSessions(4) {
		keys := make([]int, len(s.Ops))
		for i := range s.Ops {
			keys[i] = u.Vocab.Key(s.Ops[i].SQL)
		}
		ctxs = append(ctxs, keys[:len(keys)/2])
	}
	state := func(u *UCAD) (saved []byte, scores [][]float64) {
		var buf bytes.Buffer
		if err := u.Save(&buf); err != nil {
			t.Fatal(err)
		}
		for _, p := range []transdas.Precision{transdas.PrecisionFloat64, transdas.PrecisionFloat32} {
			u.Model.SetScorePrecision(p)
			scores = append(scores, u.Model.NewScorer().ScoreBatchInto(nil, ctxs)...)
		}
		u.Model.SetScorePrecision(transdas.PrecisionFloat64)
		return buf.Bytes(), scores
	}
	saved, scores := state(u)

	// Fine-tuning on fresh normal sessions must not explode FPR.
	fresh := g.GenerateSessions(10)
	tuned, _ := u.FineTune(fresh, 2, nil)
	if tuned.Vocab != u.Vocab || tuned.Model == u.Model {
		t.Fatal("the fine-tuned copy must share the vocabulary and own its model")
	}
	if gotSaved, gotScores := state(u); !bytes.Equal(gotSaved, saved) || !reflect.DeepEqual(gotScores, scores) {
		t.Fatal("fine-tuning changed the original's weights or scores")
	}
	if tunedSaved, _ := state(tuned); bytes.Equal(tunedSaved, saved) {
		t.Fatal("the fine-tuned copy has the original's weights")
	}
	fp := 0
	for _, s := range g.GenerateSessions(10) {
		if tuned.IsAnomalous(s) {
			fp++
		}
	}
	if fp > 6 {
		t.Fatalf("post-finetune FP = %d of 10", fp)
	}
}

// Guard: ablation variants construct through the adapter.
func TestDetectorVariants(t *testing.T) {
	base := transdas.DefaultConfig(2)
	base.Hidden = 8
	base.Heads = 2
	base.Blocks = 1
	base.Window = 8
	base.Epochs = 2
	base.Dropout = 0
	variants := []transdas.Config{base}
	v := base
	v.Positional = true
	v.Mask = nn.MaskFuture
	v.Objective = transdas.ObjectiveCEOnly
	variants = append(variants, v)
	for i, cfg := range variants {
		d := NewDetector(cfg)
		d.Fit([][]int{{1, 2, 3, 1, 2, 3}})
		_ = d.Flag([]int{1, 2, 3})
		_ = i
	}
}
