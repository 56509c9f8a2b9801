// Package transdas implements the paper's Trans-DAS model (§4): a
// transformer for data-access semantics with an order-free embedding
// layer, a bidirectional-except-self attention mask and a triplet +
// one-class cross-entropy training objective (Eq. 11). It also exposes
// the ablation variants of Table 3 (positional embedding, full/future
// masks, cross-entropy-only objective) through configuration.
package transdas

import (
	"fmt"
	"runtime"

	"github.com/ucad/ucad/internal/nn"
)

// Objective selects the training loss.
type Objective int

const (
	// ObjectiveTripletCE is the paper's Eq. 11: triplet hinge with
	// negative sampling plus one-class cross-entropy plus L2.
	ObjectiveTripletCE Objective = iota
	// ObjectiveCEOnly drops the triplet term (the "Base Transformer" and
	// non-objective variants of Table 3).
	ObjectiveCEOnly
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case ObjectiveTripletCE:
		return "triplet+ce"
	case ObjectiveCEOnly:
		return "ce-only"
	default:
		return "unknown"
	}
}

// Config holds the Trans-DAS hyper-parameters. Field names follow the
// paper's notation (§6.1).
type Config struct {
	// Vocab is the number of statement keys including the reserved k0.
	Vocab int
	// Hidden is h, the latent dimension of the embedding layer.
	Hidden int
	// Heads is m, the number of attention heads per block.
	Heads int
	// Blocks is B, the number of stacked attention blocks.
	Blocks int
	// Window is L, the input sequence size.
	Window int
	// Margin is g, the triplet-loss margin.
	Margin float64
	// TopP is p: an operation is normal when its similarity rank is
	// within the top p keys (§5.3).
	TopP int

	// Dropout rate inside Eq. 5's regularization.
	Dropout float64
	// LR is the SGD learning rate; Momentum its momentum term.
	LR       float64
	Momentum float64
	// WeightDecay implements Eq. 11's L2 term as decoupled decay.
	WeightDecay float64
	// Epochs is the number of training passes over the session set.
	Epochs int
	// Stride is the sliding-window step when extracting training
	// windows from a session; 0 means 1 (the paper's sliding window).
	// Detection reads the final output position, which attends to pure
	// history; stride 1 ensures every transition trains that
	// configuration. Larger strides trade detection quality for
	// training speed.
	Stride int
	// ClipNorm caps the global gradient norm per step (0 disables).
	ClipNorm float64
	// NegSamples is the number of negative keys drawn per position per
	// step (§5.2 chooses negatives "iteratively"; 0 means 1).
	NegSamples int
	// MinContext is the number of preceding operations required before
	// an operation is judged during detection.
	MinContext int

	// BatchSize is the number of windows per optimizer step: gradients
	// of a mini-batch are summed across windows (and workers) before a
	// single SGD step. ≤0 means 1 — one step per window, the paper's
	// sequential SGD trajectory.
	BatchSize int
	// TrainWorkers is the data-parallel training worker count: windows
	// of each mini-batch are sharded across this many goroutines, each
	// with a private tape, gradient accumulators and negative-sampling
	// RNG stream, and the per-worker gradients are reduced in a fixed
	// param/worker order before the step. ≤0 means GOMAXPROCS. A given
	// (Seed, BatchSize, TrainWorkers) is bit-reproducible across runs;
	// TrainWorkers=1 with BatchSize=1 reproduces the sequential
	// trajectory exactly (it trains on the model's own RNG stream).
	TrainWorkers int

	// Mask selects the attention mask (ablation: §4.3).
	Mask nn.MaskKind
	// Positional enables a learnable position embedding (ablation: the
	// original transformer keeps order information; Trans-DAS removes it).
	Positional bool
	// Objective selects the loss (ablation: §5.2).
	Objective Objective

	// Seed drives all model randomness (init, negative sampling,
	// dropout); same seed + same data = identical model.
	Seed int64
}

// DefaultConfig returns the paper's Scenario-I defaults for a given
// vocabulary size: L=30, p=5, g=0.5, h=10 (rounded up to a multiple of
// heads), m=2, B=6.
func DefaultConfig(vocab int) Config {
	return Config{
		Vocab:       vocab,
		Hidden:      10,
		Heads:       2,
		Blocks:      6,
		Window:      30,
		Margin:      0.5,
		TopP:        5,
		Dropout:     0.1,
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Epochs:      30,
		ClipNorm:    5,
		NegSamples:  3,
		MinContext:  2,
		Mask:        nn.MaskBidirectionalExceptSelf,
		Positional:  false,
		Objective:   ObjectiveTripletCE,
		Seed:        1,
		// Paper-faithful sequential SGD by default so every experiment
		// reproduction keeps its exact trajectory; opt in to
		// data-parallel training by raising these (or clearing them to
		// ≤0 for GOMAXPROCS workers).
		BatchSize:    1,
		TrainWorkers: 1,
	}
}

// Validate reports configuration errors before any allocation happens.
func (c Config) Validate() error {
	switch {
	case c.Vocab < 2:
		return fmt.Errorf("transdas: vocab %d must include k0 and at least one key", c.Vocab)
	case c.Hidden <= 0:
		return fmt.Errorf("transdas: hidden dim %d must be positive", c.Hidden)
	case c.Heads <= 0 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("transdas: hidden %d not divisible by heads %d", c.Hidden, c.Heads)
	case c.Blocks <= 0:
		return fmt.Errorf("transdas: blocks %d must be positive", c.Blocks)
	case c.Window < 2:
		return fmt.Errorf("transdas: window %d must be at least 2", c.Window)
	case c.TopP < 1:
		return fmt.Errorf("transdas: top-p %d must be at least 1", c.TopP)
	case c.Margin < 0:
		return fmt.Errorf("transdas: margin %v must be non-negative", c.Margin)
	case c.Dropout < 0 || c.Dropout >= 1:
		return fmt.Errorf("transdas: dropout %v outside [0, 1)", c.Dropout)
	}
	return nil
}

// stride returns the effective sliding-window stride.
func (c Config) stride() int {
	if c.Stride > 0 {
		return c.Stride
	}
	return 1
}

// EffectiveTrainWorkers resolves TrainWorkers: ≤0 means GOMAXPROCS.
// Exported so instrumentation (the ucad_train_workers gauge) reports
// the worker count training actually uses.
func (c Config) EffectiveTrainWorkers() int {
	if c.TrainWorkers > 0 {
		return c.TrainWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// effectiveBatchSize resolves BatchSize: ≤0 means 1.
func (c Config) effectiveBatchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 1
}
