package transdas

import (
	"math/rand"
	"sync"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// Data-parallel mini-batch training.
//
// Each epoch partitions the shuffled window order into mini-batches of
// cfg.BatchSize. The windows of one mini-batch are sharded across
// cfg.TrainWorkers long-lived workers by stride (worker w takes batch
// positions w, w+W, …), each worker runs its share through the training
// step (step.go) over its own scratch, adding the gradients into
// per-worker accumulators, and the accumulators are reduced into the
// shared p.Grad in a fixed worker order before decoupled weight decay,
// gradient clipping and a single SGD step — the synchronous
// gradient-accumulation recipe of large-minibatch SGD.
//
// Determinism: the window-to-worker assignment is a pure function of
// (position, W), every worker draws dropout and negative samples from
// its own seeded stream, and the floating-point reduction order is
// fixed, so a given (Seed, BatchSize, TrainWorkers) is bit-reproducible
// across runs. With W=1 the single worker *is* the model's own RNG
// stream, so TrainWorkers=1, BatchSize=1 replays the sequential
// trajectory bit-for-bit (see trainSequential beside the equivalence
// tests).

// trainWorker owns one worker's private training state: an RNG stream,
// one gradient accumulator per parameter (reused across batches), the
// training step's forward/backward scratch, and the shard's running
// loss.
type trainWorker struct {
	rng   *rand.Rand
	grads []*tensor.Matrix
	step  *step
	loss  float64 // Σ loss·valid over the current mini-batch shard
	valid int
}

// newTrainWorker builds worker id of a pool of `workers`. A pool of one
// trains on the model's own RNG stream (the sequential trajectory);
// larger pools give every worker its own seeded stream.
func (m *Model) newTrainWorker(id, workers int) *trainWorker {
	w := &trainWorker{}
	if workers == 1 {
		w.rng = m.rng
	} else {
		w.rng = rand.New(rand.NewSource(workerSeed(m.cfg.Seed, id)))
	}
	w.grads = make([]*tensor.Matrix, len(m.params))
	for i, p := range m.params {
		w.grads[i] = tensor.NewMatrix(p.Grad.Rows, p.Grad.Cols)
	}
	w.step = m.newStep(w.grads)
	return w
}

// workerSeed derives worker id's RNG seed from the model seed
// (splitmix64 finalizer, so neighbouring ids land far apart).
func workerSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// runShard trains worker w's share of the mini-batch order[lo:hi]:
// positions lo+offset, lo+offset+stride, … — one training step per
// window, gradients accumulated into the worker's private buffers.
func (w *trainWorker) runShard(windows []window, order []int, lo, hi, stride, offset int) {
	for i := lo + offset; i < hi; i += stride {
		loss, valid := w.step.run(windows[order[i]], w.rng)
		w.loss += loss * float64(valid)
		w.valid += valid
	}
}

// trainWindows runs the mini-batch data-parallel training loop over the
// extracted windows. It is the single training engine: the sequential
// configuration (one worker, batch one) degenerates to exactly the
// per-window SGD of trainSequential.
func (m *Model) trainWindows(windows []window, epochs int, lr float64, progress func(int, float64)) TrainResult {
	res := TrainResult{Windows: len(windows)}
	if len(windows) == 0 {
		return res
	}
	workers := m.cfg.EffectiveTrainWorkers()
	batch := m.cfg.effectiveBatchSize()
	opt := nn.NewSGD(lr, m.cfg.Momentum)
	ws := make([]*trainWorker, workers)
	for i := range ws {
		ws[i] = m.newTrainWorker(i, workers)
	}
	order := make([]int, len(windows))
	for i := range order {
		order[i] = i
	}

	// Long-lived workers 1..W-1 block on their own task channel; the
	// main goroutine runs shard 0 itself, so a pool of W uses W-1 extra
	// goroutines and the barrier is one WaitGroup per mini-batch.
	type shard struct{ lo, hi int }
	var tasks []chan shard
	var wg sync.WaitGroup
	if workers > 1 {
		tasks = make([]chan shard, workers-1)
		for i := range tasks {
			tasks[i] = make(chan shard, 1)
			go func(offset int, ch chan shard) {
				w := ws[offset]
				for s := range ch {
					w.runShard(windows, order, s.lo, s.hi, workers, offset)
					wg.Done()
				}
			}(i+1, tasks[i])
		}
		defer func() {
			for _, ch := range tasks {
				close(ch)
			}
		}()
	}

	for epoch := 0; epoch < epochs; epoch++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var count int
		for lo := 0; lo < len(order); lo += batch {
			hi := lo + batch
			if hi > len(order) {
				hi = len(order)
			}
			if workers == 1 {
				ws[0].runShard(windows, order, lo, hi, 1, 0)
			} else {
				wg.Add(len(tasks))
				for _, ch := range tasks {
					ch <- shard{lo, hi}
				}
				ws[0].runShard(windows, order, lo, hi, workers, 0)
				wg.Wait()
			}
			batchValid := 0
			for _, w := range ws {
				batchValid += w.valid
			}
			if batchValid > 0 {
				// Reduce in fixed worker order (each fold walks the
				// params in index order), then take the one step. A
				// batch with no valid window skips the step entirely so
				// momentum velocity is not decayed by empty batches —
				// matching the sequential trainer's skip.
				for _, w := range ws {
					nn.AccumulateGrads(m.params, w.grads)
					for _, g := range w.grads {
						g.Zero()
					}
				}
				m.applyStep(opt)
			}
			for _, w := range ws {
				total += w.loss
				count += w.valid
				w.loss, w.valid = 0, 0
			}
		}
		mean := 0.0
		if count > 0 {
			mean = total / float64(count)
		}
		res.EpochLoss = append(res.EpochLoss, mean)
		if progress != nil {
			progress(epoch, mean)
		}
	}
	return res
}
