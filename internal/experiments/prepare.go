package experiments

import (
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/workload"
)

// ScenarioData is a fully prepared scenario: raw sessions for
// preprocessing experiments plus tokenized key sequences for detectors.
type ScenarioData struct {
	Name  string
	Gen   *workload.Generator
	Suite *workload.Suite
	Vocab *sqlnorm.Vocabulary
	Cfg   transdas.Config

	Train    [][]int
	Normal   map[string][][]int
	Abnormal map[string][][]int
}

// prepare builds a scenario's suite and tokenizes it: the vocabulary is
// learned from the training split only (detection-stage semantics for
// every test set, exactly as in deployment).
func prepare(name string, spec workload.Spec, p scenarioParams, seed int64) *ScenarioData {
	if p.avgLen > 0 {
		spec.AvgLen = p.avgLen
	}
	gen := workload.NewGenerator(spec, seed)
	suite := gen.BuildSuite(p.sessions)

	vocab := sqlnorm.NewVocabulary()
	session.TokenizeLearn(vocab, suite.Train)

	cfg := p.cfg
	cfg.Vocab = vocab.Size()
	train := make([][]int, len(suite.Train))
	for i, s := range suite.Train {
		train[i] = s.Keys() // as TokenizeLearn keyed them
	}

	d := &ScenarioData{
		Name:     name,
		Gen:      gen,
		Suite:    suite,
		Vocab:    vocab,
		Cfg:      cfg,
		Train:    train,
		Normal:   map[string][][]int{},
		Abnormal: map[string][][]int{},
	}
	for set, ss := range suite.Normal {
		d.Normal[set] = session.KeysIn(vocab, ss...)
	}
	for set, ss := range suite.Abnormal {
		d.Abnormal[set] = session.KeysIn(vocab, ss...)
	}
	return d
}

// PrepareScenarioI builds the commenting-application data at the
// option's scale.
func PrepareScenarioI(opt Options) *ScenarioData {
	p := opt.paramsI()
	return prepare("Scenario-I", workload.ScenarioI(), p, opt.Seed)
}

// PrepareScenarioII builds the location-service data at the option's
// scale.
func PrepareScenarioII(opt Options) *ScenarioData {
	p := opt.paramsII()
	return prepare("Scenario-II", workload.ScenarioII(p.richness), p, opt.Seed)
}

// Scenarios prepares both scenarios.
func Scenarios(opt Options) []*ScenarioData {
	return []*ScenarioData{PrepareScenarioI(opt), PrepareScenarioII(opt)}
}
