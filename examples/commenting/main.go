// Commenting reproduces the paper's first user-study case (§6.7,
// Figure 9a): a live-video commenting application whose database audit
// log is UCAD's only input. A bot impersonates a legitimate client and
// posts danmu (bullet-screen comments) without ever opening the danmu
// panel; UCAD flags the session from the audit log alone.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/workload"
)

func main() {
	// audit stamps one statement the way the database's audit log
	// records it: account, client address, session and statement text,
	// one second after the previous record.
	clock := time.Date(2022, 6, 12, 9, 0, 0, 0, time.UTC)
	audit := func(user, addr, sessionID, sql string) session.Operation {
		clock = clock.Add(time.Second)
		return session.Operation{Time: clock, User: user, Addr: addr, SessionID: sessionID, SQL: sql}
	}

	// The audit log UCAD trains on: synthetic normal user activity.
	gen := workload.NewGenerator(workload.ScenarioI(), 7)
	var auditOps []session.Operation
	for _, s := range gen.GenerateSessions(120) {
		for _, op := range s.Ops {
			auditOps = append(auditOps, audit(s.User, s.Addr, s.ID, op.SQL))
		}
	}
	fmt.Printf("audit log: %d operations\n", len(auditOps))

	cfg := core.DefaultConfig()
	cfg.SkipClean = true
	cfg.Model.Blocks = 2
	cfg.Model.Epochs = 10
	cfg.Model.Dropout = 0
	cfg.Model.TopP = 8
	cfg.Model.MinContext = 3
	cfg.IdleGap = time.Hour
	detector, err := core.Train(cfg, session.Sessionize(auditOps, time.Hour), nil)
	if err != nil {
		log.Fatal(err)
	}

	// The bot session (Figure 9a): it reads videos it never commented
	// on, then immediately posts a danmu and likes it — without the
	// select on danmu_display that the "open danmu" button generates.
	var botLog []session.Operation
	for i := 0; i < 6; i++ {
		for _, sql := range []string{
			"SELECT * FROM t_content WHERE vid = 701",
			"SELECT * FROM t_user WHERE uid = 42",
			"INSERT INTO danmu_display (vid, uid, text) VALUES (701, 42, 'great!')",
			"INSERT INTO t_like (danmuKey, uid) VALUES (88, 42)",
		} {
			botLog = append(botLog, audit("user1", "10.0.1.11", "bot-session", sql))
		}
	}
	for _, s := range session.Sessionize(botLog, time.Hour) {
		bad := detector.DetectSession(s)
		fmt.Printf("session %s (%d ops): anomalous=%v\n", s.ID, len(s.Ops), len(bad) > 0)
		for _, idx := range bad {
			fmt.Printf("  suspicious op[%d]: %s\n", idx, s.Ops[idx].SQL)
		}
	}

	// A genuine viewer doing the same volume of activity passes.
	human := gen.NewSession()
	var humanLog []session.Operation
	for _, op := range human.Ops {
		humanLog = append(humanLog, audit(human.User, human.Addr, "human-session", op.SQL))
	}
	for _, s := range session.Sessionize(humanLog, time.Hour) {
		fmt.Printf("session %s (%d ops): anomalous=%v\n", s.ID, len(s.Ops), detector.IsAnomalous(s))
	}
}
