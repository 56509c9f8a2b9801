// Package core assembles UCAD (Figure 2): the preprocessing module
// (tokenization, clustering-based noise removal) feeding the anomaly
// detection module (a Trans-DAS instance with top-p contextual-intent
// comparison).
package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/ucad/ucad/internal/preprocess"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
)

// Config configures a full UCAD training run.
type Config struct {
	// Model configures Trans-DAS; Model.Vocab is filled automatically
	// from the learned vocabulary. Model.TrainWorkers and
	// Model.BatchSize select data-parallel mini-batch training for both
	// the offline Train and every later FineTune round; the defaults
	// (1, 1) are the paper's sequential SGD trajectory.
	Model transdas.Config
	// Clean configures the clustering-based noise removal.
	Clean preprocess.CleanConfig
	// SkipClean disables noise removal (used by the preprocessing
	// ablation).
	SkipClean bool
	// Seed drives preprocessing randomness (under-sampling).
	Seed int64
}

// DefaultConfig returns a Scenario-I-shaped configuration.
func DefaultConfig() Config {
	return Config{
		Model: transdas.DefaultConfig(2), // vocab placeholder, filled in Train
		Clean: preprocess.DefaultCleanConfig(),
		Seed:  1,
	}
}

// UCAD is a trained detector.
type UCAD struct {
	Vocab  *sqlnorm.Vocabulary
	Model  *transdas.Model
	Report preprocess.CleanReport
}

// Train runs the offline stage (Figure 4): vocabulary building,
// tokenization, noise removal and Trans-DAS training.
func Train(cfg Config, sessions []*session.Session, progress func(epoch int, loss float64)) (*UCAD, error) {
	if len(sessions) == 0 {
		return nil, fmt.Errorf("core: no training sessions")
	}
	vocab := sqlnorm.NewVocabulary()
	session.TokenizeLearn(vocab, sessions)

	var report preprocess.CleanReport
	if !cfg.SkipClean {
		rng := rand.New(rand.NewSource(cfg.Seed))
		sessions, report = preprocess.Clean(sessions, cfg.Clean, rng)
		if len(sessions) == 0 {
			return nil, fmt.Errorf("core: noise removal dropped every session; relax Clean config")
		}
	}

	mcfg := cfg.Model
	mcfg.Vocab = vocab.Size()
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	model := transdas.New(mcfg)
	keySeqs := make([][]int, len(sessions))
	for i, s := range sessions {
		keySeqs[i] = s.Keys()
	}
	model.Train(keySeqs, progress)
	return &UCAD{Vocab: vocab, Model: model, Report: report}, nil
}

// TrainFromLog reads a JSON-lines audit log, sessionizes it at
// session.IdleGap and trains.
func TrainFromLog(cfg Config, r io.Reader, progress func(int, float64)) (*UCAD, error) {
	ops, err := session.ReadLog(r)
	if err != nil {
		return nil, err
	}
	return Train(cfg, session.Sessionize(ops, session.IdleGap), progress)
}

// DetectSession tokenizes an active session with the trained vocabulary
// and returns the indices of operations violating the top-p test.
func (u *UCAD) DetectSession(s *session.Session) []int {
	return u.Model.DetectSession(session.KeysIn(u.Vocab, s)[0])
}

// IsAnomalous reports the session-level flag used by the evaluation.
func (u *UCAD) IsAnomalous(s *session.Session) bool {
	return len(u.DetectSession(s)) > 0
}

// FineTune absorbs verified-normal sessions (concept drift, §5.2) into
// a fine-tuned copy of the detector, sharing the receiver's vocabulary;
// the receiver is never modified (see transdas.Model.FineTune).
// progress, if non-nil, is called after every epoch; the returned
// TrainResult carries per-epoch losses and the window count for
// training instrumentation.
func (u *UCAD) FineTune(sessions []*session.Session, epochs int, progress func(epoch int, loss float64)) (*UCAD, transdas.TrainResult) {
	m, res := u.Model.FineTune(session.KeysIn(u.Vocab, sessions...), epochs, progress)
	return &UCAD{Vocab: u.Vocab, Model: m, Report: u.Report}, res
}

// Save persists the vocabulary and model.
func (u *UCAD) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(u.Vocab.Templates()); err != nil {
		return fmt.Errorf("core: encode vocabulary: %w", err)
	}
	return u.Model.Save(w)
}

// Load restores a detector saved by Save. The stream is a sequence of
// gob messages (vocabulary, model config, parameters), each read by its
// own decoder; a reader without byte-exact reads (io.ByteReader) must
// be wrapped once so no decoder buffers into the next section. The
// bytes are untrusted: every inconsistency is an error, including a
// vocabulary whose size is not the model's and a top-p that admits
// every key (no operation could ever be flagged).
func Load(r io.Reader) (*UCAD, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var templates []string
	if err := gob.NewDecoder(r).Decode(&templates); err != nil {
		return nil, fmt.Errorf("core: decode vocabulary: %w", err)
	}
	vocab, err := sqlnorm.FromTemplates(templates)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	model, err := transdas.Load(r)
	if err != nil {
		return nil, err
	}
	switch cfg := model.Config(); {
	case len(templates) != cfg.Vocab:
		return nil, fmt.Errorf("core: vocabulary has %d templates, model %d keys", len(templates), cfg.Vocab)
	case cfg.TopP >= cfg.Vocab:
		return nil, fmt.Errorf("core: top-p %d admits all %d keys", cfg.TopP, cfg.Vocab)
	}
	return &UCAD{Vocab: vocab, Model: model}, nil
}

// LoadFile is Load on a file: the one way a model file on disk (a
// trained model or a checkpoint) becomes a detector.
func LoadFile(path string) (*UCAD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
