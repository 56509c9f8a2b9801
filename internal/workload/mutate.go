package workload

import (
	"fmt"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
)

// PartialSwap builds a V2 session (§6.1): partially interchangeable
// operations — consecutive statements with the same command on different
// tables — are swapped. The session goal is preserved because no
// statement is added or removed and only order-free pairs move.
func (g *Generator) PartialSwap(s *session.Session) *session.Session {
	out := s.Clone()
	out.ID = s.ID + "-swap"
	// The paper swaps a handful of manually verified interchangeable
	// pairs per session ("partially swap"), not every candidate.
	swapped := 0
	const maxSwaps = 3
	stmts := make([]sqlnorm.Statement, len(out.Ops))
	for i := range out.Ops {
		stmts[i] = sqlnorm.Parse(out.Ops[i].SQL)
	}
	for i := 0; i+1 < len(out.Ops) && swapped < maxSwaps; i++ {
		if interchangeable(stmts[i], stmts[i+1]) && g.rng.Float64() < 0.35 {
			out.Ops[i], out.Ops[i+1] = out.Ops[i+1], out.Ops[i]
			swapped++
			i++ // do not re-swap the same pair (so stmts need not follow the swap)
		}
	}
	g.restamp(out)
	return out
}

// PartialRemove builds a V3 session (§6.1): operations irrelevant to
// the session goal — a user performing the same operation repeatedly in
// immediate succession — are partially removed. Only consecutive
// duplicate templates are dropped, which provably preserves both the
// session goal and its task structure (the paper verifies its removals
// manually; this restriction makes the guarantee mechanical).
func (g *Generator) PartialRemove(s *session.Session) *session.Session {
	out := &session.Session{ID: s.ID + "-remove", User: s.User, Addr: s.Addr}
	prev := ""
	for _, op := range s.Ops {
		tpl := sqlnorm.Abstract(op.SQL)
		if tpl == prev && g.rng.Float64() < 0.6 {
			continue // drop an immediate repeat
		}
		prev = tpl
		out.Ops = append(out.Ops, op)
	}
	if len(out.Ops) < 4 { // keep the session meaningful
		out.Ops = append([]session.Operation(nil), s.Ops[:4]...)
	}
	g.restamp(out)
	return out
}

// AbusePrivilege builds an A1 session (§6.1): repeatedly or randomly
// chosen select operations — beyond normal business needs — are combined
// with a normal session.
func (g *Generator) AbusePrivilege(s *session.Session) *session.Session {
	out := s.Clone()
	out.ID = s.ID + "-abuse"
	// Retrieve confidential data at scale: 30–60% extra selects, some
	// repeated (the "repeatedly chosen" variant).
	extra := len(s.Ops)*3/10 + g.rng.Intn(len(s.Ops)*3/10+1)
	if extra < 3 {
		extra = 3
	}
	pick := g.spec.RichSelects[g.rng.Intn(len(g.spec.RichSelects))]
	for i := 0; i < extra; i++ {
		if g.rng.Float64() < 0.5 {
			pick = g.spec.RichSelects[g.rng.Intn(len(g.spec.RichSelects))]
		}
		pos := g.rng.Intn(len(out.Ops) + 1)
		op := session.Operation{SQL: pick(g.rng)}
		out.Ops = append(out.Ops[:pos], append([]session.Operation{op}, out.Ops[pos:]...)...)
	}
	g.restamp(out)
	return out
}

// StealCredential builds an A2 session (§6.1): fewer than 10% new
// operations — sensitive deletes and statements foreign to the session's
// intent — are hidden inside a normal session. This is the stealthiest
// anomaly class.
func (g *Generator) StealCredential(s *session.Session) *session.Session {
	out := s.Clone()
	out.ID = s.ID + "-steal"
	n := len(s.Ops) / 10
	if n < 1 {
		n = 1
	}
	count := 1 + g.rng.Intn(n)
	for i := 0; i < count; i++ {
		gen := g.spec.SensitiveOps[g.rng.Intn(len(g.spec.SensitiveOps))]
		// Never inject at the very start: the attacker hides inside
		// ongoing normal activity.
		pos := 2 + g.rng.Intn(len(out.Ops)-1)
		op := session.Operation{SQL: gen(g.rng)}
		out.Ops = append(out.Ops[:pos], append([]session.Operation{op}, out.Ops[pos:]...)...)
	}
	g.restamp(out)
	return out
}

// Misoperate builds an A3 session (§6.1): rarely performed normal
// operations randomly combined — the behavior of an inexperienced staff
// member whose actions are not logically consistent.
func (g *Generator) Misoperate(avgLen int) *session.Session {
	g.seq++
	role := &g.spec.Roles[g.rng.Intn(len(g.spec.Roles))]
	s := &session.Session{
		ID:   fmt.Sprintf("%s-mis-%06d", g.spec.Name, g.seq),
		User: role.Users[g.rng.Intn(len(role.Users))],
		Addr: role.Addrs[g.rng.Intn(len(role.Addrs))],
	}
	target := avgLen/2 + g.rng.Intn(avgLen/2+1)
	if target < 6 {
		target = 6
	}
	for len(s.Ops) < target {
		gen := g.spec.RareOps[g.rng.Intn(len(g.spec.RareOps))]
		s.Ops = append(s.Ops, session.Operation{SQL: gen(g.rng)})
	}
	g.restamp(s)
	return s
}

// Suite bundles the datasets of one scenario exactly as §6.1 defines
// them: training set T, normal test sets V1/V2/V3 and abnormal sets
// A1/A2/A3, each test set the same size as V1.
type Suite struct {
	Scenario string
	Train    []*session.Session
	Normal   map[string][]*session.Session
	Abnormal map[string][]*session.Session
}

// BuildSuite generates `sessions` normal sessions, splits them 8:2 into
// T and V1, derives V2/V3 by mutation and A1/A2/A3 by the three attack
// syntheses.
func (g *Generator) BuildSuite(sessions int) *Suite {
	all := g.GenerateSessions(sessions)
	split := sessions * 8 / 10
	train, v1 := all[:split], all[split:]

	suite := &Suite{
		Scenario: g.spec.Name,
		Train:    train,
		Normal:   map[string][]*session.Session{"V1": v1},
		Abnormal: map[string][]*session.Session{},
	}
	for _, s := range v1 {
		suite.Normal["V2"] = append(suite.Normal["V2"], g.PartialSwap(s))
		suite.Normal["V3"] = append(suite.Normal["V3"], g.PartialRemove(s))
		suite.Abnormal["A1"] = append(suite.Abnormal["A1"], g.AbusePrivilege(s))
		suite.Abnormal["A2"] = append(suite.Abnormal["A2"], g.StealCredential(s))
		suite.Abnormal["A3"] = append(suite.Abnormal["A3"], g.Misoperate(g.spec.AvgLen))
	}
	return suite
}

// Contaminate returns a training set with `ratio` of its sessions
// replaced by synthetic abnormal sessions — the hybrid dataset of the
// robustness experiment (§6.5).
func (g *Generator) Contaminate(train []*session.Session, ratio float64) []*session.Session {
	out := append([]*session.Session(nil), train...)
	n := int(float64(len(train)) * ratio)
	perm := g.rng.Perm(len(train))
	for i := 0; i < n && i < len(perm); i++ {
		victim := out[perm[i]]
		switch g.rng.Intn(3) {
		case 0:
			out[perm[i]] = g.AbusePrivilege(victim)
		case 1:
			out[perm[i]] = g.StealCredential(victim)
		default:
			out[perm[i]] = g.Misoperate(g.spec.AvgLen)
		}
	}
	return out
}
