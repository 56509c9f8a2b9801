package workload

import (
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/sqlnorm"
)

// Stats summarizes a session set the way the paper's Table 1 does.
type Stats struct {
	Sessions      int
	AvgLen        float64
	Keys          int            // distinct statement templates
	KeysByCommand map[string]int // SELECT / INSERT / UPDATE / DELETE
	Tables        int
}

// ComputeStats parses every statement once and reports Table 1
// statistics.
func ComputeStats(sessions []*session.Session) Stats {
	st := Stats{Sessions: len(sessions), KeysByCommand: make(map[string]int)}
	templates := make(map[string]bool)
	tables := make(map[string]bool)
	totalOps := 0
	for _, s := range sessions {
		for i := range s.Ops {
			p := sqlnorm.Parse(s.Ops[i].SQL)
			if !templates[p.Template] {
				templates[p.Template] = true
				st.KeysByCommand[p.Command]++
			}
			if p.Table != "" {
				tables[p.Table] = true
			}
		}
		totalOps += len(s.Ops)
	}
	st.Keys, st.Tables = len(templates), len(tables)
	if len(sessions) > 0 {
		st.AvgLen = float64(totalOps) / float64(len(sessions))
	}
	return st
}
