package transdas

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// gradModel builds a small seeded model with every parameter perturbed
// by seeded noise, so layer-norm gains and biases and the FFN biases
// carry non-trivial gradients.
func gradModel(cfg Config) *Model {
	m := New(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 500))
	for _, p := range m.params {
		for i := range p.Value.Data {
			p.Value.Data[i] += 0.1 * rng.NormFloat64()
		}
	}
	return m
}

// gradWindow is one full-length training window whose targets include
// a PadKey (a masked position) and repeat a key (two read-out rows
// summing into one table row).
func gradWindow(cfg Config) window {
	keys := []int{3, 1, 4, 1, 5, 9, 2}[:cfg.Window+1]
	keys[4] = 0
	return extractWindows(keys, cfg.Window, 1)[cfg.Window-1]
}

// TestStepGradientMatchesFiniteDifferences checks the step's
// hand-written backward pass against central differences of its own
// loss, for every element of every parameter (embedding, positional
// embedding, Q/K/V/O projections, both FFN layers' weights and biases,
// both layer norms' gains and biases), under both objectives and all
// three masks. Dropout is off and the negatives are re-drawn from the
// same seed, so the loss is a deterministic function of the weights.
func TestStepGradientMatchesFiniteDifferences(t *testing.T) {
	for _, obj := range []Objective{ObjectiveTripletCE, ObjectiveCEOnly} {
		for _, mask := range []nn.MaskKind{nn.MaskBidirectionalExceptSelf, nn.MaskFull, nn.MaskFuture} {
			t.Run(obj.String()+"/"+mask.String(), func(t *testing.T) {
				cfg := DefaultConfig(10)
				cfg.Hidden, cfg.Heads, cfg.Blocks, cfg.Window = 6, 2, 2, 6
				cfg.Dropout, cfg.Positional, cfg.Objective, cfg.Mask = 0, true, obj, mask
				m := gradModel(cfg)
				win := gradWindow(cfg)
				grads := make([]*tensor.Matrix, len(m.params))
				for i, p := range m.params {
					grads[i] = tensor.NewMatrix(p.Value.Rows, p.Value.Cols)
				}
				s := m.newStep(grads)
				loss := func() float64 {
					l, valid := s.run(win, rand.New(rand.NewSource(3)))
					if valid == 0 {
						t.Fatal("window has no valid position")
					}
					return l
				}
				loss()
				want := make([]*tensor.Matrix, len(grads))
				for i, g := range grads {
					want[i] = g.Clone() // later runs keep adding into grads
				}
				const eps = 1e-6
				nonzero := 0
				for pi, p := range m.params {
					for i, v := range p.Value.Data {
						p.Value.Data[i] = v + eps
						up := loss()
						p.Value.Data[i] = v - eps
						down := loss()
						p.Value.Data[i] = v
						num, got := (up-down)/(2*eps), want[pi].Data[i]
						if math.Abs(num-got) > 1e-6+1e-4*math.Max(math.Abs(num), math.Abs(got)) {
							t.Fatalf("%s[%d]: backward %.9g, finite difference %.9g", p.Name, i, got, num)
						}
						if got != 0 {
							nonzero++
						}
					}
				}
				if nonzero == 0 {
					t.Fatal("every gradient is zero")
				}
			})
		}
	}
}

// TestWarmStepAllocatesNothing: after one full-length window a worker's
// training step reuses its scratch for every later window.
func TestWarmStepAllocatesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Dropout = 0.1
	m := New(cfg)
	w := m.newTrainWorker(0, 2)
	windows := m.collectWindows(toySessions(4, rand.New(rand.NewSource(8))))
	w.step.run(windows[len(windows)-1], w.rng)
	i := 0
	if n := testing.AllocsPerRun(50, func() {
		w.step.run(windows[i%len(windows)], w.rng)
		i++
	}); n != 0 {
		t.Fatalf("warm training step allocates %v times per window", n)
	}
}

// TestAttentionWeightsBesideScoring: AttentionWeights only reads the
// weights, so it may run while other goroutines score (run under -race
// by make check), and what it returns is the step's softmax rows: each
// head's row sums to 1 and a kind-masked pair gets exactly 0.
func TestAttentionWeightsBesideScoring(t *testing.T) {
	m := New(testConfig())
	keys := []int{1, 2, 3, 4, 5}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s := m.NewScorer()
			rng := rand.New(rand.NewSource(seed))
			ctxs, next := make([][]int, 8), make([]int, 8)
			var ranks []int
			for iter := 0; iter < 20; iter++ {
				for i := range ctxs {
					ctxs[i] = randomContext(rng, m.cfg.Vocab, 1+rng.Intn(m.cfg.Window))
					next[i] = rng.Intn(m.cfg.Vocab)
				}
				ranks = s.RankBatchInto(ranks, ctxs, next)
			}
		}(int64(g))
	}
	for iter := 0; iter < 20; iter++ {
		for _, w := range m.AttentionWeights(keys) {
			for i := 0; i < w.Rows; i++ {
				sum := 0.0
				for _, v := range w.Row(i) {
					sum += v
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("attention row %d sums to %v", i, sum)
				}
				if i+1 < w.Cols && w.At(i, i+1) != 0 {
					t.Fatalf("masked pair (%d,%d) has weight %v", i, i+1, w.At(i, i+1))
				}
			}
		}
	}
	wg.Wait()
}
