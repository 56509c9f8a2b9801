package workload

import "math/rand"

// This file adapts the batch dataset builders to *streaming* multi-tenant
// serving: each tenant runs its own scenario, and a MultiGen riffles
// their sessions into one event stream the way a shared ingest frontend
// would see them. The single-tenant generators stay untouched — sources
// wrap them.

// StreamSession is one session rendered for streaming ingest: the
// assembly key, the acting principal, and the ordered statement texts.
type StreamSession struct {
	ClientID   string
	User       string
	Addr       string
	Statements []string
	// Anomalous marks sessions synthesized to violate the source's
	// grammar — ground truth for end-to-end detection checks.
	Anomalous bool
}

// SessionSource produces a stream of sessions. Implementations are
// deterministic for a fixed seed and not safe for concurrent use.
type SessionSource interface {
	NextSession() StreamSession
}

// ScenarioSource streams sessions from a database scenario Spec,
// injecting the §6.1 attack syntheses at a configurable rate.
type ScenarioSource struct {
	gen         *Generator
	rng         *rand.Rand
	anomalyProb float64
}

// NewScenarioSource wraps a scenario spec as a streaming source.
// anomalyProb is the per-session chance of an A1/A2/A3 synthesis.
func NewScenarioSource(spec Spec, seed int64, anomalyProb float64) *ScenarioSource {
	return &ScenarioSource{
		gen:         NewGenerator(spec, seed),
		rng:         rand.New(rand.NewSource(seed ^ 0x5ca1ab1e)),
		anomalyProb: anomalyProb,
	}
}

// NextSession returns the next session, anomalous with probability
// anomalyProb via a uniformly chosen attack recipe.
func (s *ScenarioSource) NextSession() StreamSession {
	sess := s.gen.NewSession()
	anomalous := false
	if s.rng.Float64() < s.anomalyProb {
		anomalous = true
		switch s.rng.Intn(3) {
		case 0:
			sess = s.gen.AbusePrivilege(sess)
		case 1:
			sess = s.gen.StealCredential(sess)
		default:
			sess = s.gen.Misoperate(s.gen.spec.AvgLen)
		}
	}
	stmts := make([]string, len(sess.Ops))
	for i := range sess.Ops {
		stmts[i] = sess.Ops[i].SQL
	}
	return StreamSession{
		ClientID:   sess.ID,
		User:       sess.User,
		Addr:       sess.Addr,
		Statements: stmts,
		Anomalous:  anomalous,
	}
}

// TenantEvent is one statement of the interleaved multi-tenant stream,
// addressed to its tenant — the shape a multi-tenant ingest endpoint
// consumes.
type TenantEvent struct {
	Tenant   string
	ClientID string
	User     string
	Addr     string
	SQL      string
	// SessionEnd marks the last statement of its session.
	SessionEnd bool
	// Anomalous carries the session's ground-truth label on every event.
	Anomalous bool
}

// TenantStream binds a session source to a tenant id within a MultiGen.
type TenantStream struct {
	Tenant string
	Source SessionSource
	// Weight is the tenant's share of emitted events; zero counts as 1
	// (uniform when no weights are set).
	Weight float64
	// Concurrency is how many of the tenant's sessions stream at once
	// (default 2) — events of concurrent sessions interleave, as they
	// would from independent connections.
	Concurrency int
}

// MultiGen riffles the sessions of several tenants into one event
// stream: each Next draws a tenant by weight, then one of that tenant's
// open sessions uniformly, and emits its next statement. Deterministic
// for a fixed seed; not safe for concurrent use.
type MultiGen struct {
	rng     *rand.Rand
	streams []*tenantState
	weights []float64
}

type tenantState struct {
	TenantStream
	open []*openSession
}

type openSession struct {
	s   StreamSession
	pos int
}

// NewMultiGen builds an interleaving generator over the tenant streams.
func NewMultiGen(seed int64, streams ...TenantStream) *MultiGen {
	if len(streams) == 0 {
		panic("workload: NewMultiGen needs at least one stream")
	}
	m := &MultiGen{rng: rand.New(rand.NewSource(seed))}
	anyWeight := false
	for _, ts := range streams {
		if ts.Concurrency <= 0 {
			ts.Concurrency = 2
		}
		m.streams = append(m.streams, &tenantState{TenantStream: ts})
		m.weights = append(m.weights, ts.Weight)
		anyWeight = anyWeight || ts.Weight > 0
	}
	if !anyWeight {
		m.weights = nil
	} else {
		for i, w := range m.weights {
			if w == 0 {
				m.weights[i] = 1
			}
		}
	}
	return m
}

// Next emits the next event of the interleaved stream.
func (m *MultiGen) Next() TenantEvent {
	st := m.streams[pickWeighted(m.rng, len(m.streams), m.weights)]
	for len(st.open) < st.Concurrency {
		s := st.Source.NextSession()
		if len(s.Statements) == 0 {
			continue // a degenerate source session carries no events
		}
		st.open = append(st.open, &openSession{s: s})
	}
	i := m.rng.Intn(len(st.open))
	o := st.open[i]
	ev := TenantEvent{
		Tenant:    st.Tenant,
		ClientID:  o.s.ClientID,
		User:      o.s.User,
		Addr:      o.s.Addr,
		SQL:       o.s.Statements[o.pos],
		Anomalous: o.s.Anomalous,
	}
	o.pos++
	if o.pos == len(o.s.Statements) {
		ev.SessionEnd = true
		st.open = append(st.open[:i], st.open[i+1:]...)
	}
	return ev
}
