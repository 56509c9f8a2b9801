// Package workload synthesizes database access traces for the two
// scenarios of the paper's evaluation (§6.1) plus the public-log
// transfer datasets (§6.6).
//
// The paper's traces are proprietary; per DESIGN.md the generators
// reproduce their published statistics (Table 1) and, more importantly,
// their structure: users belong to roles, roles execute task grammars
// over statement templates, and sessions are heterogeneous interleavings
// of tasks. Anomalies are synthesized with the exact recipes of §6.1
// (privilege abuse, credential stealing, misoperations), and the extra
// normal test sets V2/V3 with the partial-swap and partial-remove
// mutations.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
)

// StmtGen renders one SQL statement with fresh literals.
type StmtGen func(rng *rand.Rand) string

// TaskGen renders one logical task: a short sequence of statements with
// a common goal (e.g. "update a table": insert → select → delete).
type TaskGen func(rng *rand.Rand) []string

// RoleSpec is one user role: a set of accounts sharing a task grammar.
type RoleSpec struct {
	Name string
	// Weight is the role's share of generated sessions (uniform when
	// all weights are zero).
	Weight float64
	Users  []string
	Addrs  []string
	// Tasks and Weights define the role's task distribution.
	Tasks   []TaskGen
	Weights []float64
	// TasksPerSession, when positive, restricts each session to a
	// random subset of that many tasks — sessions have goals, so a
	// single session exercises a focused slice of the role's grammar.
	// This is what makes §6.1's negative sampling meaningful: keys that
	// never appear in a session are negatives even when the same role
	// uses them elsewhere.
	TasksPerSession int
	// SessionTasks, when set, replaces Tasks for each new session with
	// tasks specialized to that session (e.g. a batch loader works on
	// one table with one batch size for the whole session, so its
	// statement templates repeat — the behavior visible in the paper's
	// Figure 6 session). Weights and TasksPerSession are ignored for
	// roles using SessionTasks.
	SessionTasks func(rng *rand.Rand) []TaskGen
	// RareTasks are executed with RareProb per task slot — the "rarely
	// performed" normal operations that §6.1's misoperation anomalies
	// recombine.
	RareTasks []TaskGen
	RareProb  float64
}

// Spec describes a full scenario.
type Spec struct {
	Name string
	// AvgLen is the target mean session length (Table 1).
	AvgLen int
	// LenJitter is the relative standard deviation of session lengths.
	LenJitter float64
	Roles     []RoleSpec
	// RichSelects feed A1 (privilege abuse) injections.
	RichSelects []StmtGen
	// SensitiveOps feed A2 (credential stealing) injections: deletes and
	// other statements whose templates exist in the vocabulary but are
	// foreign to most sessions' intent.
	SensitiveOps []StmtGen
	// RareOps are the rarely performed normal statements recombined by
	// A3 (misoperations).
	RareOps []StmtGen
	// InterleaveProb is the chance that two concurrent tasks' operations
	// riffle together instead of executing back-to-back — the
	// heterogeneous access patterns of §1: different operation orders
	// with identical semantics. Order-free detectors tolerate this;
	// order-dependent sequence models (LSTM/DeepLog) do not.
	InterleaveProb float64
	// ShuffleProb is the chance that one pair of adjacent
	// order-interchangeable operations (same command, different tables —
	// the paper's Figure-of-merit for interchangeability) within a task
	// executes in the opposite order. Real users do not sequence their
	// independent queries deterministically.
	ShuffleProb float64
}

// Generator synthesizes sessions from a Spec.
type Generator struct {
	spec Spec
	rng  *rand.Rand
	base time.Time
	seq  int
	// a4pick is the A4 exfiltration campaign's fixed target template
	// (chosen lazily on the first ExfiltrateSlow call).
	a4pick StmtGen
}

// NewGenerator returns a deterministic generator for the spec.
func NewGenerator(spec Spec, seed int64) *Generator {
	return &Generator{
		spec: spec,
		rng:  rand.New(rand.NewSource(seed)),
		base: time.Date(2022, 6, 12, 0, 0, 0, 0, time.UTC),
	}
}

// pickWeighted selects an index from weights (uniform when empty).
func pickWeighted(rng *rand.Rand, n int, weights []float64) int {
	if len(weights) != n {
		return rng.Intn(n)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// sessionLength samples a session length around AvgLen.
func (g *Generator) sessionLength() int {
	l := float64(g.spec.AvgLen) * (1 + g.rng.NormFloat64()*g.spec.LenJitter)
	n := int(math.Round(l))
	if n < 4 {
		n = 4
	}
	return n
}

// NewSession synthesizes one normal session for a role drawn by weight.
func (g *Generator) NewSession() *session.Session {
	weights := make([]float64, len(g.spec.Roles))
	any := false
	for i := range g.spec.Roles {
		weights[i] = g.spec.Roles[i].Weight
		any = any || weights[i] > 0
	}
	if !any {
		weights = nil
	}
	role := &g.spec.Roles[pickWeighted(g.rng, len(g.spec.Roles), weights)]
	return g.newSessionForRole(role)
}

func (g *Generator) newSessionForRole(role *RoleSpec) *session.Session {
	g.seq++
	user := role.Users[g.rng.Intn(len(role.Users))]
	addr := role.Addrs[g.rng.Intn(len(role.Addrs))]
	s := &session.Session{
		ID:   fmt.Sprintf("%s-%06d", g.spec.Name, g.seq),
		User: user,
		Addr: addr,
	}
	target := g.sessionLength()
	t := g.base.Add(time.Duration(g.rng.Intn(7*24*3600)) * time.Second)
	appendStmt := func(sql string) {
		t = t.Add(time.Duration(500+g.rng.Intn(4500)) * time.Millisecond)
		s.Ops = append(s.Ops, session.Operation{
			Time: t, User: user, Addr: addr, SessionID: s.ID, SQL: sql,
		})
	}
	tasks, weights := role.Tasks, role.Weights
	if role.SessionTasks != nil {
		tasks = role.SessionTasks(g.rng)
		weights = nil
	} else if role.TasksPerSession > 0 && role.TasksPerSession < len(tasks) {
		idx := pickWeightedSubset(g.rng, len(tasks), weights, role.TasksPerSession)
		tasks = make([]TaskGen, len(idx))
		weights = make([]float64, len(idx))
		for i, j := range idx {
			tasks[i] = role.Tasks[j]
			if len(role.Weights) == len(role.Tasks) {
				weights[i] = role.Weights[j]
			} else {
				weights[i] = 1
			}
		}
	}
	nextChunk := func() []string {
		if len(role.RareTasks) > 0 && g.rng.Float64() < role.RareProb {
			return role.RareTasks[g.rng.Intn(len(role.RareTasks))](g.rng)
		}
		return tasks[pickWeighted(g.rng, len(tasks), weights)](g.rng)
	}
	for len(s.Ops) < target {
		chunk := nextChunk()
		if g.rng.Float64() < g.spec.InterleaveProb {
			chunk = riffle(g.rng, chunk, nextChunk())
		}
		if g.rng.Float64() < g.spec.ShuffleProb {
			swapInterchangeable(g.rng, chunk)
		}
		for _, sql := range chunk {
			appendStmt(sql)
		}
	}
	return s
}

// swapInterchangeable swaps one random adjacent pair of statements with
// the same command on different tables, if any exists.
func swapInterchangeable(rng *rand.Rand, chunk []string) {
	var candidates []int
	var prev sqlnorm.Statement
	for i, sql := range chunk {
		cur := sqlnorm.Parse(sql)
		if i > 0 && interchangeable(prev, cur) {
			candidates = append(candidates, i-1)
		}
		prev = cur
	}
	if len(candidates) == 0 {
		return
	}
	i := candidates[rng.Intn(len(candidates))]
	chunk[i], chunk[i+1] = chunk[i+1], chunk[i]
}

// interchangeable reports whether two adjacent statements may trade
// places: the same command on different tables (§6.1).
func interchangeable(a, b sqlnorm.Statement) bool {
	return a.Command == b.Command && a.Table != b.Table
}

// riffle merges two statement sequences preserving each one's internal
// order — the trace of two tasks running concurrently.
func riffle(rng *rand.Rand, a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(a) == 0 {
			return append(out, b...)
		}
		if len(b) == 0 {
			return append(out, a...)
		}
		// Draw proportionally so the merge is a uniform interleaving.
		if rng.Intn(len(a)+len(b)) < len(a) {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	return out
}

// pickWeightedSubset draws k distinct task indices, each chosen by
// weight without replacement.
func pickWeightedSubset(rng *rand.Rand, n int, weights []float64, k int) []int {
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	w := make([]float64, n)
	for i := range w {
		if len(weights) == n {
			w[i] = weights[i]
		} else {
			w[i] = 1
		}
	}
	var out []int
	for len(out) < k && len(remaining) > 0 {
		j := pickWeighted(rng, len(remaining), w)
		out = append(out, remaining[j])
		remaining = append(remaining[:j], remaining[j+1:]...)
		w = append(w[:j], w[j+1:]...)
	}
	return out
}

// GenerateSessions synthesizes n normal sessions.
func (g *Generator) GenerateSessions(n int) []*session.Session {
	out := make([]*session.Session, n)
	for i := range out {
		out[i] = g.NewSession()
	}
	return out
}

// restamp rewrites timestamps so a mutated session stays temporally
// plausible (monotone with human-scale gaps).
func (g *Generator) restamp(s *session.Session) {
	if len(s.Ops) == 0 {
		return
	}
	t := s.Ops[0].Time
	for i := range s.Ops {
		s.Ops[i].Time = t
		s.Ops[i].User = s.User
		s.Ops[i].Addr = s.Addr
		s.Ops[i].SessionID = s.ID
		t = t.Add(time.Duration(500+g.rng.Intn(4500)) * time.Millisecond)
	}
}
