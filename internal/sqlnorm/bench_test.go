package sqlnorm_test

import (
	"testing"

	"github.com/ucad/ucad/internal/sqlnorm"
	"github.com/ucad/ucad/internal/workload"
)

var keySink int

// BenchmarkKey keys Scenario-I statements against the vocabulary
// learned from them: serving's per-event tokenize step. One op is one
// statement.
func BenchmarkKey(b *testing.B) {
	var stmts []string
	for _, s := range workload.NewGenerator(workload.ScenarioI(), 1).GenerateSessions(50) {
		for _, op := range s.Ops {
			stmts = append(stmts, op.SQL)
		}
	}
	v := sqlnorm.NewVocabulary()
	for _, sql := range stmts {
		v.Learn(sql)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = v.Key(stmts[i%len(stmts)])
	}
}
