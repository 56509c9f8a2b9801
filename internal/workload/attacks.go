package workload

import (
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
)

// This file extends §6.1's A1/A2/A3 taxonomy with three attack families
// observed in production audit-log incidents and absent from the
// paper's evaluation:
//
//   - A4 low-and-slow exfiltration: a campaign that drips one or two
//     confidential reads into each of many sessions, staying far below
//     A1's volume so per-session evidence is minimal.
//   - A5 privilege-escalation orderings: no foreign statement at all —
//     operations that legitimately close a task are executed before the
//     preparatory reads that normally justify them, a pure
//     order-of-execution anomaly.
//   - A6 mass-delete bursts: a sabotage/ransom run of consecutive
//     deletes using templates the vocabulary knows, at a rate no normal
//     session exhibits.
//
// All three draw from the scenario's existing statement pools, so (in
// contrast to naive out-of-vocabulary probes) detection must come from
// context, not from unknown templates.

// ExfiltrateSlow builds an A4 session: 1–2 rich selects — the same
// campaign target across every infected session — hidden at scattered
// positions. Compare AbusePrivilege (A1), which injects 30–60% extra.
func (g *Generator) ExfiltrateSlow(s *session.Session) *session.Session {
	out := s.Clone()
	out.ID = s.ID + "-exfil"
	if g.a4pick == nil {
		// One campaign, one target: every A4 session leaks through the
		// same select template.
		g.a4pick = g.spec.RichSelects[g.rng.Intn(len(g.spec.RichSelects))]
	}
	count := 1 + g.rng.Intn(2)
	for i := 0; i < count; i++ {
		// Never at the head: the drip hides inside established context.
		pos := 3 + g.rng.Intn(len(out.Ops)-2)
		op := session.Operation{SQL: g.a4pick(g.rng)}
		out.Ops = append(out.Ops[:pos], append([]session.Operation{op}, out.Ops[pos:]...)...)
	}
	g.restamp(out)
	return out
}

// EscalatePrivilege builds an A5 session: a block of operations from
// the session's tail — the writes that normally conclude a task — is
// moved up front, executing before the reads that justify them. The
// multiset of statements is unchanged; only the order is anomalous.
func (g *Generator) EscalatePrivilege(s *session.Session) *session.Session {
	out := s.Clone()
	out.ID = s.ID + "-escalate"
	n := len(out.Ops)
	if n < 8 {
		g.restamp(out)
		return out
	}
	// Move 3–4 consecutive tail operations to just after the session
	// opening (past the scoring warm-up, so the violation is visible to
	// a detector with a minimum-context threshold).
	blk := 3 + g.rng.Intn(2)
	from := n - blk - g.rng.Intn(n/4+1)
	if from < n/2 {
		from = n / 2
	}
	if from+blk > n {
		blk = n - from
	}
	moved := append([]session.Operation(nil), out.Ops[from:from+blk]...)
	rest := append(append([]session.Operation(nil), out.Ops[:from]...), out.Ops[from+blk:]...)
	at := 3
	out.Ops = append(append(append([]session.Operation(nil), rest[:at]...), moved...), rest[at:]...)
	g.restamp(out)
	return out
}

// MassDelete builds an A6 session: a burst of 6–10 consecutive deletes
// (known templates, abnormal rate) dropped mid-session — the signature
// of sabotage or a ransom wipe.
func (g *Generator) MassDelete(s *session.Session) *session.Session {
	out := s.Clone()
	out.ID = s.ID + "-wipe"
	gens := g.deleteGens()
	burst := 6 + g.rng.Intn(5)
	pos := 3
	if len(out.Ops) > 3 {
		pos = 3 + g.rng.Intn(len(out.Ops)-2)
	}
	ops := make([]session.Operation, burst)
	for i := range ops {
		ops[i] = session.Operation{SQL: gens[g.rng.Intn(len(gens))](g.rng)}
	}
	out.Ops = append(out.Ops[:pos], append(ops, out.Ops[pos:]...)...)
	g.restamp(out)
	return out
}

// deleteGens returns the scenario's delete-shaped statement generators,
// falling back to the full sensitive pool if the spec has none.
func (g *Generator) deleteGens() []StmtGen {
	var dels []StmtGen
	for _, pool := range [][]StmtGen{g.spec.SensitiveOps, g.spec.RareOps} {
		for _, gen := range pool {
			if sqlnorm.Parse(gen(g.rng)).Command == "DELETE" {
				dels = append(dels, gen)
			}
		}
	}
	if len(dels) == 0 {
		dels = g.spec.SensitiveOps
	}
	return dels
}

// ExtendAttacks appends the A4/A5/A6 sets to a built suite, one derived
// session per V1 session — the same sizing rule §6.1 uses for A1–A3.
// It draws randomness after BuildSuite finished, so the suite's
// original sets are byte-identical to what BuildSuite alone produces.
func (g *Generator) ExtendAttacks(suite *Suite) {
	for _, s := range suite.Normal["V1"] {
		suite.Abnormal["A4"] = append(suite.Abnormal["A4"], g.ExfiltrateSlow(s))
		suite.Abnormal["A5"] = append(suite.Abnormal["A5"], g.EscalatePrivilege(s))
		suite.Abnormal["A6"] = append(suite.Abnormal["A6"], g.MassDelete(s))
	}
}
