// Command tracegen writes synthetic database audit logs for the two
// paper scenarios, optionally with injected anomalies.
//
// Usage:
//
//	tracegen -scenario 1 -sessions 354 -out train.jsonl
//	tracegen -scenario 2 -sessions 100 -anomalies a2 -richness 0.2 -seed 7 -out mixed.jsonl
//
// That is the whole flag surface (-h prints the defaults); flags_test.go
// fails when a flag is added or removed without this block following.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/workload"
)

func main() {
	scenario := flag.Int("scenario", 1, "scenario to synthesize (1 or 2)")
	sessions := flag.Int("sessions", 100, "number of normal sessions")
	anomalies := flag.String("anomalies", "", "comma list of anomaly kinds to inject (a1,a2,a3), one per 10 normal sessions")
	richness := flag.Float64("richness", 0.2, "scenario 2 template richness (0,1]")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	var spec workload.Spec
	switch *scenario {
	case 1:
		spec = workload.ScenarioI()
	case 2:
		spec = workload.ScenarioII(*richness)
	default:
		fmt.Fprintln(os.Stderr, "tracegen: scenario must be 1 or 2")
		os.Exit(2)
	}
	g := workload.NewGenerator(spec, *seed)
	all := g.GenerateSessions(*sessions)

	for _, kind := range strings.Split(*anomalies, ",") {
		kind = strings.TrimSpace(strings.ToLower(kind))
		if kind == "" {
			continue
		}
		for i := 0; i < *sessions/10+1; i++ {
			victim := all[(i*7)%len(all)]
			switch kind {
			case "a1":
				all = append(all, g.AbusePrivilege(victim))
			case "a2":
				all = append(all, g.StealCredential(victim))
			case "a3":
				all = append(all, g.Misoperate(spec.AvgLen))
			default:
				fmt.Fprintf(os.Stderr, "tracegen: unknown anomaly kind %q\n", kind)
				os.Exit(2)
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := session.WriteLog(w, session.Flatten(all)); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d sessions\n", len(all))
}
