// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic workloads. Each experiment prints
// rows in the paper's layout and returns the structured results so
// benchmarks and tests can assert the qualitative shape (who wins, by
// roughly what factor, where crossovers fall).
package experiments

import (
	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/transdas"
)

// Scale selects the experiment size. Absolute numbers change with
// scale; the comparative shape is stable.
type Scale int

const (
	// ScaleQuick fits in unit-test and benchmark budgets (seconds).
	ScaleQuick Scale = iota
	// ScaleDemo is the CLI default (minutes).
	ScaleDemo
	// ScalePaper reproduces Table 1's dataset sizes (hours on a laptop,
	// as in the paper's no-GPU setup).
	ScalePaper
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleDemo:
		return "demo"
	case ScalePaper:
		return "paper"
	default:
		return "unknown"
	}
}

// Options parameterizes an experiment run.
type Options struct {
	Scale Scale
	Seed  int64
}

// DefaultOptions returns the demo scale.
func DefaultOptions() Options { return Options{Scale: ScaleDemo, Seed: 1} }

// scenarioParams holds the per-scenario workload and model sizes for a
// scale.
type scenarioParams struct {
	sessions int
	avgLen   int     // 0 keeps the spec's Table 1 value
	richness float64 // Scenario-II template richness
	cfg      transdas.Config
}

// paramsI returns Scenario-I parameters for the scale.
func (o Options) paramsI() scenarioParams {
	cfg := transdas.DefaultConfig(2) // paper: L=30 p=5 g=.5 h=10 m=2 B=6
	cfg.Seed = o.Seed
	cfg.Dropout = 0
	cfg.MinContext = 3
	// Our synthetic Scenario-I has more task-start entropy than the
	// paper's trace; its interior-optimal p is 8 rather than 5 (the
	// Figure 7a sweep reproduces the interior peak).
	cfg.TopP = 8
	p := scenarioParams{sessions: 354, cfg: cfg}
	switch o.Scale {
	case ScaleQuick:
		p.sessions = 100
		p.cfg.Blocks = 2
		p.cfg.Epochs = 12
	case ScaleDemo:
		p.sessions = 200
		// Deeper stacks over-smooth at h=10 on our synthetic traces
		// (bag-averaging erodes the final-position query specificity the
		// top-p ranking needs); B=2 keeps demo-scale detection sharp.
		// See EXPERIMENTS.md for the measured depth ablation.
		p.cfg.Blocks = 2
		p.cfg.Epochs = 14
	case ScalePaper:
		p.cfg.Epochs = 30
	}
	return p
}

// paramsII returns Scenario-II parameters for the scale. The paper uses
// L=100, p=10, g=0.5, h=64, m=8, B=6 on 3722 sessions of average length
// 129; smaller scales shrink the sessions, template richness and model
// proportionally so the run stays CPU-tractable.
func (o Options) paramsII() scenarioParams {
	cfg := transdas.DefaultConfig(2)
	cfg.Seed = o.Seed
	cfg.Dropout = 0
	cfg.MinContext = 3
	cfg.Margin = 0.5
	switch o.Scale {
	case ScaleQuick:
		cfg.Hidden, cfg.Heads, cfg.Blocks = 16, 2, 2
		cfg.Window, cfg.TopP = 30, 10
		cfg.Epochs = 10
		return scenarioParams{sessions: 90, avgLen: 30, richness: 0.06, cfg: cfg}
	case ScaleDemo:
		cfg.Hidden, cfg.Heads, cfg.Blocks = 32, 4, 2
		cfg.Window, cfg.TopP = 60, 10
		cfg.Epochs = 10
		return scenarioParams{sessions: 160, avgLen: 60, richness: 0.12, cfg: cfg}
	default: // ScalePaper
		cfg.Hidden, cfg.Heads, cfg.Blocks = 64, 8, 6
		cfg.Window, cfg.TopP = 100, 10
		cfg.Epochs = 20
		return scenarioParams{sessions: 3722, avgLen: 0, richness: 1.0, cfg: cfg}
	}
}

// ablationVariant builds the Table 3 model variants from a full
// Trans-DAS configuration.
func ablationVariant(full transdas.Config, name string) transdas.Config {
	cfg := full
	switch name {
	case "Base Transformer":
		cfg.Positional = true
		cfg.Mask = nn.MaskFuture
		cfg.Objective = transdas.ObjectiveCEOnly
	case "Our embedding layer":
		cfg.Positional = false
		cfg.Mask = nn.MaskFuture
		cfg.Objective = transdas.ObjectiveCEOnly
	case "Our masking mechanism":
		cfg.Positional = true
		cfg.Mask = nn.MaskBidirectionalExceptSelf
		cfg.Objective = transdas.ObjectiveCEOnly
	case "Our training objective":
		cfg.Positional = true
		cfg.Mask = nn.MaskFuture
		cfg.Objective = transdas.ObjectiveTripletCE
	case "Trans-DAS":
		// the full model
	}
	return cfg
}

// ablationOrder is the Table 3 row order.
var ablationOrder = []string{
	"Base Transformer",
	"Our embedding layer",
	"Our masking mechanism",
	"Our training objective",
	"Trans-DAS",
}
