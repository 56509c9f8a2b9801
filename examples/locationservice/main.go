// Locationservice reproduces the paper's second user-study case (§6.7,
// Figure 9b): a maliciously repackaged app steals a legitimate app's
// credential and floods manipulated location reports, then wipes its
// trail. The paper's UCAD flags the session because the operation
// pattern deviates from the contextual intent of authenticated
// reporting. This example does not reproduce that: it prints
// anomalous=false for the attack and anomalous=true for the legitimate
// contrast session (EXPERIMENTS.md, §6.7 and Known deviation 7).
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
	// The generator synthesizes the reporting/fingerprint workload.
	gen := workload.NewGenerator(workload.ScenarioII(0.12), 11)
	normal := gen.GenerateSessions(150)

	cfg := core.DefaultConfig()
	cfg.SkipClean = true
	cfg.Model.Hidden, cfg.Model.Heads, cfg.Model.Blocks = 32, 4, 2
	cfg.Model.Window, cfg.Model.TopP = 60, 10
	cfg.Model.Epochs = 8
	cfg.Model.Dropout = 0
	cfg.Model.MinContext = 3
	detector, err := core.Train(cfg, normal, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d sessions, %d templates\n", len(normal), detector.Vocab.Size()-1)

	// The attack as the database's audit log records it, 200 ms apart.
	clock := time.Date(2022, 6, 13, 12, 0, 0, 0, time.UTC)
	var attackLog []session.Operation
	evil := func(sql string) {
		clock = clock.Add(200 * time.Millisecond)
		attackLog = append(attackLog, session.Operation{
			Time: clock, User: "app2", Addr: "172.16.0.11", SessionID: "repackaged-app", SQL: sql,
		})
	}
	evil("SELECT token FROM t_auth WHERE dev = 9021") // stolen credential check
	for i := 0; i < 14; i++ {                         // manipulated location flood
		evil(fmt.Sprintf("INSERT INTO loc_rm (dev, lat, lon, ts) VALUES (9021, %d, %d, %d)", i, 2*i, 1655000000+i))
	}
	evil("DELETE FROM loc_rm WHERE dev = 9021") // wipe the trail

	for _, s := range session.Sessionize(attackLog, time.Hour) {
		bad := detector.DetectSession(s)
		fmt.Printf("session %s (%d ops): anomalous=%v\n", s.ID, len(s.Ops), len(bad) > 0)
		for _, idx := range bad {
			fmt.Printf("  suspicious op[%d]: %s\n", idx, s.Ops[idx].SQL)
		}
	}

	// Contrast: a legitimate reporter session, which should pass.
	probe := gen.NewSession()
	fmt.Printf("legitimate session %s (%d ops): anomalous=%v\n",
		probe.ID, len(probe.Ops), detector.IsAnomalous(probe))
}
