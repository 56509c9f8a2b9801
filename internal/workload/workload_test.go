package workload

import (
	"math"
	"testing"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
)

func TestScenarioIStatsMatchTable1(t *testing.T) {
	g := NewGenerator(ScenarioI(), 1)
	sessions := g.GenerateSessions(354)
	st := ComputeStats(sessions)
	if st.Keys != 20 {
		t.Fatalf("keys = %d, want 20 (Table 1)", st.Keys)
	}
	want := map[string]int{"SELECT": 7, "INSERT": 4, "UPDATE": 4, "DELETE": 5}
	for cmd, n := range want {
		if st.KeysByCommand[cmd] != n {
			t.Fatalf("%s keys = %d, want %d (got %v)", cmd, st.KeysByCommand[cmd], n, st.KeysByCommand)
		}
	}
	if st.Tables != 7 {
		t.Fatalf("tables = %d, want 7", st.Tables)
	}
	if math.Abs(st.AvgLen-24) > 5 {
		t.Fatalf("avg length = %v, want ~24", st.AvgLen)
	}
}

func TestScenarioIIStatsMatchTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-richness Scenario-II generation is slow")
	}
	// Sessions are template-sticky (one batch shape each), so covering
	// the ~700-template space needs a realistic session count; the paper
	// uses 3722.
	g := NewGenerator(ScenarioII(1.0), 2)
	sessions := g.GenerateSessions(1500)
	st := ComputeStats(sessions)
	// Table 1 reports 593 keys broken down as (238, 351, 146, 4), which
	// sums to 739; we target the per-command breakdown, which is the
	// consistent part, with stochastic-coverage tolerance.
	if st.Keys < 450 || st.Keys > 745 {
		t.Fatalf("keys = %d, want ≈700 (Table 1 breakdown sum 739)", st.Keys)
	}
	if n := st.KeysByCommand["SELECT"]; n < 150 || n > 250 {
		t.Fatalf("select keys = %d, want ≈238", n)
	}
	if n := st.KeysByCommand["INSERT"]; n < 180 || n > 360 {
		t.Fatalf("insert keys = %d, want ≈351", n)
	}
	if n := st.KeysByCommand["UPDATE"]; n < 90 || n > 160 {
		t.Fatalf("update keys = %d, want ≈146", n)
	}
	if st.Tables != 15 {
		t.Fatalf("tables = %d, want 15", st.Tables)
	}
	if math.Abs(st.AvgLen-129) > 20 {
		t.Fatalf("avg length = %v, want ~129", st.AvgLen)
	}
	// Command mix: select+insert dominate, few deletes.
	if st.KeysByCommand["DELETE"] > 8 {
		t.Fatalf("delete keys = %d, want ≤ 8", st.KeysByCommand["DELETE"])
	}
	if st.KeysByCommand["SELECT"] < 100 || st.KeysByCommand["INSERT"] < 100 {
		t.Fatalf("command mix %v lacks select/insert richness", st.KeysByCommand)
	}
}

func TestScenarioIIRichnessScalesKeys(t *testing.T) {
	small := NewGenerator(ScenarioII(0.1), 3)
	st := ComputeStats(small.GenerateSessions(60))
	if st.Keys > 120 {
		t.Fatalf("richness 0.1 produced %d keys, want well under the full 593", st.Keys)
	}
	if st.Tables < 14 {
		t.Fatalf("tables = %d, want ~15 regardless of richness", st.Tables)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(ScenarioI(), 7).GenerateSessions(5)
	b := NewGenerator(ScenarioI(), 7).GenerateSessions(5)
	for i := range a {
		if len(a[i].Ops) != len(b[i].Ops) {
			t.Fatal("same seed must reproduce sessions")
		}
		for j := range a[i].Ops {
			if a[i].Ops[j].SQL != b[i].Ops[j].SQL {
				t.Fatal("same seed must reproduce statements")
			}
		}
	}
}

func TestSessionsAreWellFormed(t *testing.T) {
	g := NewGenerator(ScenarioI(), 4)
	for _, s := range g.GenerateSessions(20) {
		if s.User == "" || s.Addr == "" || s.ID == "" {
			t.Fatalf("missing identity: %+v", s)
		}
		for i := 1; i < len(s.Ops); i++ {
			if !s.Ops[i].Time.After(s.Ops[i-1].Time) {
				t.Fatal("timestamps must be strictly increasing")
			}
			if s.Ops[i].User != s.User || s.Ops[i].SessionID != s.ID {
				t.Fatal("operation identity must match the session")
			}
		}
	}
}

func templateCounts(ops []string) map[string]int {
	m := map[string]int{}
	for _, sql := range ops {
		m[sqlnorm.Abstract(sql)]++
	}
	return m
}

func TestPartialSwapPreservesMultiset(t *testing.T) {
	g := NewGenerator(ScenarioI(), 5)
	s := g.NewSession()
	swapped := g.PartialSwap(s)
	if len(swapped.Ops) != len(s.Ops) {
		t.Fatal("swap must not change length")
	}
	var a, b []string
	for i := range s.Ops {
		a = append(a, s.Ops[i].SQL)
		b = append(b, swapped.Ops[i].SQL)
	}
	ca, cb := templateCounts(a), templateCounts(b)
	for k, v := range ca {
		if cb[k] != v {
			t.Fatalf("template multiset changed for %q", k)
		}
	}
	moved := false
	for i := range a {
		if a[i] != b[i] {
			moved = true
		}
	}
	if !moved {
		t.Log("no swap happened for this session (possible but unlikely)")
	}
}

func TestPartialRemoveOnlyRemoves(t *testing.T) {
	g := NewGenerator(ScenarioI(), 6)
	s := g.NewSession()
	removed := g.PartialRemove(s)
	if len(removed.Ops) > len(s.Ops) {
		t.Fatal("remove must not add operations")
	}
	ca, cb := map[string]int{}, map[string]int{}
	for i := range s.Ops {
		ca[sqlnorm.Abstract(s.Ops[i].SQL)]++
	}
	for i := range removed.Ops {
		cb[sqlnorm.Abstract(removed.Ops[i].SQL)]++
	}
	for k, v := range cb {
		if v > ca[k] {
			t.Fatalf("remove introduced template %q", k)
		}
	}
}

func TestStealCredentialIsStealthy(t *testing.T) {
	g := NewGenerator(ScenarioI(), 7)
	for i := 0; i < 10; i++ {
		s := g.NewSession()
		ab := g.StealCredential(s)
		added := len(ab.Ops) - len(s.Ops)
		if added < 1 {
			t.Fatal("A2 must add at least one operation")
		}
		if added > len(s.Ops)/10+1 {
			t.Fatalf("A2 added %d ops to a %d-op session; must stay under ~10%%", added, len(s.Ops))
		}
	}
}

func TestAbusePrivilegeAddsOnlySelects(t *testing.T) {
	g := NewGenerator(ScenarioI(), 8)
	s := g.NewSession()
	ab := g.AbusePrivilege(s)
	if len(ab.Ops) <= len(s.Ops) {
		t.Fatal("A1 must add operations")
	}
	base := map[string]int{}
	for i := range s.Ops {
		base[sqlnorm.Abstract(s.Ops[i].SQL)]++
	}
	for i := range ab.Ops {
		st := sqlnorm.Parse(ab.Ops[i].SQL)
		if base[st.Template] > 0 {
			base[st.Template]--
			continue
		}
		if st.Command != "SELECT" {
			t.Fatalf("A1 injected non-select %q", st.Template)
		}
	}
}

func TestMisoperateUsesRareOps(t *testing.T) {
	spec := ScenarioI()
	g := NewGenerator(spec, 9)
	rare := map[string]bool{}
	probe := NewGenerator(spec, 9)
	for _, gen := range spec.RareOps {
		for i := 0; i < 20; i++ {
			rare[sqlnorm.Abstract(gen(probe.rng))] = true
		}
	}
	s := g.Misoperate(24)
	if len(s.Ops) < 6 {
		t.Fatalf("A3 session too short: %d", len(s.Ops))
	}
	for i := range s.Ops {
		if !rare[sqlnorm.Abstract(s.Ops[i].SQL)] {
			t.Fatalf("A3 used non-rare statement %q", s.Ops[i].SQL)
		}
	}
}

func TestBuildSuiteShapes(t *testing.T) {
	g := NewGenerator(ScenarioI(), 10)
	suite := g.BuildSuite(50)
	if len(suite.Train) != 40 || len(suite.Normal["V1"]) != 10 {
		t.Fatalf("split = %d/%d, want 40/10", len(suite.Train), len(suite.Normal["V1"]))
	}
	for _, name := range []string{"V2", "V3"} {
		if len(suite.Normal[name]) != 10 {
			t.Fatalf("%s size = %d", name, len(suite.Normal[name]))
		}
	}
	for _, name := range []string{"A1", "A2", "A3"} {
		if len(suite.Abnormal[name]) != 10 {
			t.Fatalf("%s size = %d", name, len(suite.Abnormal[name]))
		}
	}
}

func TestContaminateReplacesRatio(t *testing.T) {
	g := NewGenerator(ScenarioI(), 11)
	train := g.GenerateSessions(40)
	dirty := g.Contaminate(train, 0.25)
	if len(dirty) != len(train) {
		t.Fatal("contamination must preserve set size")
	}
	changed := 0
	for i := range train {
		if dirty[i] != train[i] {
			changed++
		}
	}
	if changed != 10 {
		t.Fatalf("changed %d sessions, want 10", changed)
	}
}

func TestSyslogDatasets(t *testing.T) {
	for _, build := range []func(int, int, int, int64) *LogDataset{HDFSLike, BGLLike, ThunderbirdLike} {
		d := build(30, 10, 10, 1)
		if len(d.Train) != 30 || len(d.TestNormal) != 10 || len(d.TestAbnormal) != 10 {
			t.Fatalf("%s sizes wrong", d.Name)
		}
		anomalySet := map[int]bool{}
		for _, k := range d.AnomalyKeys {
			anomalySet[k] = true
		}
		for _, s := range append(append([][]int{}, d.Train...), d.TestNormal...) {
			if len(s) < 3 {
				t.Fatalf("%s session too short: %v", d.Name, s)
			}
			for _, k := range s {
				if k <= 0 || k >= d.Vocab {
					t.Fatalf("%s key %d outside vocab %d", d.Name, k, d.Vocab)
				}
				if anomalySet[k] {
					t.Fatalf("%s normal session uses anomaly template %d", d.Name, k)
				}
			}
		}
		// Abnormal sessions are mostly normal keys (stealthy), and at
		// least some must carry anomaly-only templates.
		sawAnomalyKey := false
		for _, s := range d.TestAbnormal {
			for _, k := range s {
				if anomalySet[k] {
					sawAnomalyKey = true
				}
			}
		}
		if !sawAnomalyKey {
			t.Fatalf("%s abnormal sessions never use anomaly templates", d.Name)
		}
	}
}

func TestSyslogDeterminism(t *testing.T) {
	a := HDFSLike(5, 5, 5, 42)
	b := HDFSLike(5, 5, 5, 42)
	for i := range a.Train {
		if len(a.Train[i]) != len(b.Train[i]) {
			t.Fatal("same seed must reproduce the dataset")
		}
		for j := range a.Train[i] {
			if a.Train[i][j] != b.Train[i][j] {
				t.Fatal("same seed must reproduce the dataset")
			}
		}
	}
}

func TestKeyedUsesDetectionSemantics(t *testing.T) {
	g := NewGenerator(ScenarioI(), 12)
	train := g.GenerateSessions(10)
	v := sqlnorm.NewVocabulary()
	for _, s := range train {
		for i := range s.Ops {
			v.Learn(s.Ops[i].SQL)
		}
	}
	keyed := session.KeysIn(v, train...)
	if len(keyed) != 10 {
		t.Fatal("wrong session count")
	}
	for i, keys := range keyed {
		if len(keys) != len(train[i].Ops) {
			t.Fatal("wrong op count")
		}
		for _, k := range keys {
			if k <= 0 {
				t.Fatal("training statements must all be in vocabulary")
			}
		}
	}
}

// PartialSwap reads a statement's command from its first token, so a
// leading comment neither makes two commands look alike nor different.
func TestPartialSwapReadsCommandPastComments(t *testing.T) {
	build := func(a, b string) *session.Session {
		s := &session.Session{ID: "s"}
		for i := 0; i < 20; i++ {
			s.Ops = append(s.Ops, session.Operation{SQL: a}, session.Operation{SQL: b})
		}
		return s
	}
	g := NewGenerator(ScenarioI(), 1)
	same := func(x, y *session.Session) bool {
		for i := range x.Ops {
			if x.Ops[i].SQL != y.Ops[i].SQL {
				return false
			}
		}
		return true
	}
	// A select and a delete are not interchangeable, whatever their hints say.
	if s := build("/* h */ SELECT a FROM t1", "/* h */ DELETE FROM t2"); !same(s, g.PartialSwap(s)) {
		t.Error("PartialSwap swapped a SELECT with a DELETE")
	}
	// Two selects on different tables are, whatever their comments say.
	if s := build("/* h */ SELECT a FROM t1", "-- c\nSELECT b FROM t2"); same(s, g.PartialSwap(s)) {
		t.Error("PartialSwap swapped no pair of selects on different tables")
	}
}
