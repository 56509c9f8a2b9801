package core

import (
	"github.com/ucad/ucad/internal/metrics"
	"github.com/ucad/ucad/internal/transdas"
)

// Detector adapts Trans-DAS to the metrics.Detector interface so the
// experiment harness evaluates UCAD alongside the baselines on
// already-tokenized key sequences. It scores through the float64
// reference kernel with no score cache: the paper's numbers.
type Detector struct {
	// Config is the Trans-DAS configuration; Vocab is derived from the
	// training data at Fit time.
	Config transdas.Config
	// DisplayName overrides Name() (used by ablation variants).
	DisplayName string

	model *transdas.Model
}

// NewDetector wraps a Trans-DAS configuration.
func NewDetector(cfg transdas.Config) *Detector { return &Detector{Config: cfg} }

// Name implements metrics.Detector.
func (d *Detector) Name() string {
	if d.DisplayName != "" {
		return d.DisplayName
	}
	return "UCAD"
}

// Fit implements metrics.Detector.
func (d *Detector) Fit(train [][]int) {
	maxKey := 0
	for _, s := range train {
		for _, k := range s {
			if k > maxKey {
				maxKey = k
			}
		}
	}
	cfg := d.Config
	cfg.Vocab = maxKey + 1
	if cfg.Vocab < 2 {
		d.model = nil
		return
	}
	// A top-p covering the whole vocabulary would never flag anything;
	// clamp it so the test stays meaningful on small key spaces.
	if cfg.TopP >= cfg.Vocab-1 {
		cfg.TopP = cfg.Vocab - 2
		if cfg.TopP < 1 {
			cfg.TopP = 1
		}
	}
	d.model = transdas.New(cfg)
	d.model.Train(train, nil)
}

// Flag implements metrics.Detector.
func (d *Detector) Flag(keys []int) bool {
	if d.model == nil {
		return false
	}
	return d.model.IsAnomalous(keys)
}

// Model exposes the fitted Trans-DAS instance (nil before Fit).
func (d *Detector) Model() *transdas.Model { return d.model }

var _ metrics.Detector = (*Detector)(nil)
