package workload

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
)

// corpus is every statement of a scenario's suite — training split, the
// three normal test sets and all six attack sets — in a fixed order.
func corpus(spec Spec, sessions int, seed int64) []*session.Session {
	g := NewGenerator(spec, seed)
	suite := g.BuildSuite(sessions)
	g.ExtendAttacks(suite)
	out := append([]*session.Session(nil), suite.Train...)
	for _, sets := range []map[string][]*session.Session{suite.Normal, suite.Abnormal} {
		names := make([]string, 0, len(sets))
		for name := range sets {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, sets[name]...)
		}
	}
	return out
}

// The statement key contract, pinned: the (template, command, table)
// triple of every statement in the Scenario-I, Scenario-II and attack
// corpora, and the Table 1 statistics of each training split. Every
// synthetic statement is ASCII, so a lexer change that keeps ASCII
// statements' parses leaves all of these unchanged. The suites run
// PartialSwap, so its command and table comparison is pinned too.
func TestParsePinnedCorpora(t *testing.T) {
	cases := []struct {
		name     string
		spec     Spec
		sessions int
		ops      int
		sum      uint64
		stats    string
	}{
		{"scenario-I", ScenarioI(), 200, 13764, 0xef66241aeafae1b4,
			"160 24.181250 20 map[DELETE:5 INSERT:4 SELECT:7 UPDATE:4] 7"},
		{"scenario-II", ScenarioII(1.0), 200, 68103, 0xb3ab107a857ecd79,
			"160 129.831250 182 map[DELETE:4 INSERT:64 SELECT:87 UPDATE:27] 15"},
	}
	for _, tc := range cases {
		all := corpus(tc.spec, tc.sessions, 5)
		h := fnv.New64a()
		ops := 0
		for _, s := range all {
			for _, op := range s.Ops {
				st := sqlnorm.Parse(op.SQL)
				fmt.Fprintf(h, "%s\x00%s\x00%s\n", st.Template, st.Command, st.Table)
				ops++
			}
		}
		st := ComputeStats(all[:tc.sessions*8/10])
		stats := fmt.Sprintf("%d %.6f %d %v %d", st.Sessions, st.AvgLen, st.Keys, st.KeysByCommand, st.Tables)
		if ops != tc.ops || h.Sum64() != tc.sum || stats != tc.stats {
			t.Errorf("%s: %d ops, fingerprint %#x, stats %q; want %d, %#x, %q",
				tc.name, ops, h.Sum64(), stats, tc.ops, tc.sum, tc.stats)
		}
	}
}
