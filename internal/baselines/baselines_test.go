package baselines

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ucad/ucad/internal/metrics"
)

// Compile-time interface checks.
var (
	_ metrics.Detector = (*OneClassSVM)(nil)
	_ metrics.Detector = (*IForest)(nil)
	_ metrics.Detector = (*Mazzawi)(nil)
	_ metrics.Detector = (*DeepLog)(nil)
	_ metrics.Detector = (*USAD)(nil)
	_ metrics.Detector = (*LogCluster)(nil)
)

// grammarSessions builds normal sessions from two alternating task
// families (the same shape the transdas tests use).
func grammarSessions(n, length int, rng *rand.Rand) [][]int {
	tasksA := [][]int{{1, 2, 3}, {4, 5, 6}}
	tasksB := [][]int{{7, 8}, {9, 10}}
	var out [][]int
	for i := 0; i < n; i++ {
		tasks := tasksA
		if i%2 == 1 {
			tasks = tasksB
		}
		var s []int
		for len(s) < length {
			s = append(s, tasks[rng.Intn(len(tasks))]...)
		}
		out = append(out, s)
	}
	return out
}

// burstSession is a gross count anomaly: one key repeated many times.
func burstSession(length int) []int {
	s := make([]int, length)
	for i := range s {
		s[i] = 2
	}
	return s
}

func holdout(rng *rand.Rand, n int) ([][]int, [][]int) {
	return grammarSessions(n, 18, rng), grammarSessions(n/4, 18, rng)
}

// rank is the 1-based rank of key among d's next-key predictions after
// ctx.
func rank(d *DeepLog, ctx []int, key int) int { return d.rankOf(new(dlScratch), ctx, key) }

func fprOn(d metrics.Detector, normals [][]int) float64 {
	fp := 0
	for _, s := range normals {
		if d.Flag(s) {
			fp++
		}
	}
	return float64(fp) / float64(len(normals))
}

func TestCountVector(t *testing.T) {
	v := CountVector([]int{1, 1, 3, 0, 99}, 5)
	if v[1] != 2 || v[3] != 1 {
		t.Fatalf("counts = %v", v)
	}
	if v[0] != 2 { // k0 and out-of-vocab both bucket to 0
		t.Fatalf("unknown bucket = %v", v[0])
	}
	if len(v) != 6 {
		t.Fatalf("len = %d", len(v))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestCapSimplexVertex(t *testing.T) {
	grad := []float64{3, 1, 2}
	s := capSimplexVertex(grad, 0.6)
	// Mass fills ascending-gradient coords: idx1 gets 0.6, idx2 gets 0.4.
	if math.Abs(s[1]-0.6) > 1e-12 || math.Abs(s[2]-0.4) > 1e-12 || s[0] != 0 {
		t.Fatalf("vertex = %v", s)
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mass = %v", sum)
	}
}

func TestAvgPathLen(t *testing.T) {
	if avgPathLen(1) != 0 || avgPathLen(0) != 0 {
		t.Fatal("degenerate path length must be 0")
	}
	// c(256) ≈ 10.24 (known value from the iForest paper).
	if c := avgPathLen(256); c < 9.5 || c < 0 || c > 11 {
		t.Fatalf("c(256) = %v", c)
	}
}

func TestOneClassSVMSeparatesBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train, test := holdout(rng, 60)
	d := NewOneClassSVM()
	d.Fit(train)
	if !d.Flag(burstSession(18)) {
		t.Fatal("OCSVM missed a gross count anomaly")
	}
	if fpr := fprOn(d, test); fpr > 0.35 {
		t.Fatalf("OCSVM FPR = %v too high", fpr)
	}
}

func TestIForestSeparatesVolumeAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train, test := holdout(rng, 60)
	d := NewIForest(7)
	d.Fit(train)
	// A privilege-abuse style anomaly: all activity counts far above the
	// training range. (A single out-of-range feature is iForest's known
	// blind spot — axis-parallel splits never extrapolate beyond the
	// training range — so the realistic multi-feature volume anomaly is
	// the right target here.)
	long := grammarSessions(1, 90, rng)[0]
	if !d.Flag(long) {
		t.Fatal("iForest missed a volume anomaly")
	}
	if fpr := fprOn(d, test); fpr > 0.35 {
		t.Fatalf("iForest FPR = %v too high", fpr)
	}
}

func TestMazzawiFlagsVolumeAnomalies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train, test := holdout(rng, 60)
	d := NewMazzawi()
	d.Fit(train)
	// A privilege-abuse style anomaly: 5x normal session length.
	long := grammarSessions(1, 90, rng)[0]
	if !d.Flag(long) {
		t.Fatal("Mazzawi missed a volume anomaly")
	}
	if fpr := fprOn(d, test); fpr > 0.2 {
		t.Fatalf("Mazzawi FPR = %v too high", fpr)
	}
	// A stealthy single-op injection should typically pass (its known
	// blind spot, Table 2's FNR on A2).
	stealthy := append([]int(nil), test[0]...)
	stealthy[len(stealthy)/2] = 9
	if d.Flag(stealthy) {
		t.Log("Mazzawi flagged a stealthy anomaly (unusual but possible)")
	}
}

func TestDeepLogLearnsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Strictly ordered grammar: 1 2 3 repeated.
	var train [][]int
	for i := 0; i < 40; i++ {
		var s []int
		for j := 0; j < 6; j++ {
			s = append(s, 1, 2, 3)
		}
		train = append(train, s)
	}
	_ = rng
	d := NewDeepLog(5)
	d.TopG = 1
	d.Epochs = 6
	d.Fit(train)
	if d.Flag([]int{1, 2, 3, 1, 2, 3}) {
		t.Fatal("DeepLog flagged an in-grammar session")
	}
	if !d.Flag([]int{1, 2, 3, 2, 1, 3}) {
		t.Fatal("DeepLog missed an order violation")
	}
	if !d.Flag([]int{1, 2, 3, 7, 1, 2}) {
		t.Fatal("DeepLog missed an unseen key")
	}
}

func TestUSADSeparatesBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train, test := holdout(rng, 40)
	d := NewUSAD(8)
	d.Epochs = 8
	d.Fit(train)
	if !d.Flag(burstSession(20)) {
		t.Fatal("USAD missed a gross count anomaly")
	}
	if fpr := fprOn(d, test); fpr > 0.4 {
		t.Fatalf("USAD FPR = %v too high", fpr)
	}
}

func TestLogClusterFlagsForeignPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train, test := holdout(rng, 60)
	d := NewLogCluster()
	d.Fit(train)
	foreign := []int{20, 21, 22, 20, 21, 22, 20, 21, 22, 20, 21, 22}
	if !d.Flag(foreign) {
		t.Fatal("LogCluster missed a foreign pattern")
	}
	if fpr := fprOn(d, test); fpr > 0.25 {
		t.Fatalf("LogCluster FPR = %v too high", fpr)
	}
}

// TestBaselinesFlagConcurrently: metrics.Evaluate runs a fitted
// DeepLog's and USAD's Flag on GOMAXPROCS goroutines, each call with
// its own inference scratch (make race covers it), and counts what
// sequential calls count.
func TestBaselinesFlagConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	train, normal := holdout(rng, 40)
	abnormal := [][]int{burstSession(20), {1, 2, 3, 2, 1, 3, 9, 7}, {4, 5, 6, 8, 7, 1, 2, 3}}
	dl := NewDeepLog(3)
	dl.Epochs, dl.MaxWindows, dl.TopG = 2, 300, 2
	us := NewUSAD(3)
	us.Epochs = 2
	for _, d := range []metrics.Detector{dl, us} {
		d.Fit(train)
		ev := metrics.Evaluate(d, map[string][][]int{"normal": normal}, map[string][][]int{"abnormal": abnormal})
		if fpr := fprOn(d, normal); ev.FPR["normal"] != fpr {
			t.Errorf("%s: concurrent FPR %v, sequential %v", d.Name(), ev.FPR["normal"], fpr)
		}
		missed := 0
		for _, s := range abnormal {
			if !d.Flag(s) {
				missed++
			}
		}
		if fnr := float64(missed) / float64(len(abnormal)); ev.FNR["abnormal"] != fnr {
			t.Errorf("%s: concurrent FNR %v, sequential %v", d.Name(), ev.FNR["abnormal"], fnr)
		}
	}
}

func TestDetectorsHandleEmptyTraining(t *testing.T) {
	for _, d := range []metrics.Detector{
		NewOneClassSVM(), NewIForest(1), NewMazzawi(), NewDeepLog(1), NewUSAD(1), NewLogCluster(),
	} {
		d.Fit(nil)
		if d.Flag([]int{1, 2, 3}) {
			t.Errorf("%s flags sessions with no training data", d.Name())
		}
	}
}

func TestMaxKey(t *testing.T) {
	if MaxKey([][]int{{1, 5}, {3}}) != 5 {
		t.Fatal("MaxKey wrong")
	}
	if MaxKey(nil) != 0 {
		t.Fatal("MaxKey of empty must be 0")
	}
}
