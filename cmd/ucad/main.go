// Command ucad trains the detector on a database audit log and detects
// anomalous sessions in another log.
//
// Usage:
//
//	ucad train  -log normal.jsonl [-model ucad.model] [-epochs N] [-window L] [-p P] [-hidden H]
//	            [-skip-clean] [-seed S] [-train-workers N] [-batch-size B] [-metrics-out FILE]
//	ucad detect -log active.jsonl [-model ucad.model] [-v]
//
// That is the whole flag surface of each subcommand (-h prints the
// defaults); flags_test.go fails when a flag is added or removed without
// this block following.
//
// Both subcommands split logs into sessions at the same idle gap
// (session.IdleGap, 10 minutes) where records carry no session id: the
// model file does not record the gap, so detecting at another one would
// rank windows unlike those the model was trained on.
//
// Audit logs are JSON lines with fields ts, user, addr, session_id and
// sql (see internal/session). cmd/tracegen produces compatible logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/obs"
	"github.com/ucad/ucad/internal/session"
	"github.com/ucad/ucad/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		runTrain(os.Args[2:])
	case "detect":
		runDetect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ucad train|detect -log FILE -model FILE [flags]")
	os.Exit(2)
}

func runTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	logPath := fs.String("log", "", "audit log (JSON lines) of normal activity")
	modelPath := fs.String("model", "ucad.model", "output model file")
	epochs := fs.Int("epochs", 0, "override training epochs")
	window := fs.Int("window", 0, "override input window L")
	topP := fs.Int("p", 0, "override detection top-p")
	hidden := fs.Int("hidden", 0, "override latent dimension h")
	skipClean := fs.Bool("skip-clean", false, "disable clustering-based noise removal")
	seed := fs.Int64("seed", 1, "random seed")
	trainWorkers := fs.Int("train-workers", 1, "data-parallel training workers (<=0 uses all CPUs; 1 with -batch-size 1 is the paper's sequential SGD)")
	batchSize := fs.Int("batch-size", 1, "windows per SGD step (gradients are summed across the mini-batch)")
	metricsOut := fs.String("metrics-out", "", "write training metrics (Prometheus text format) to this file")
	fs.Parse(args)
	if *logPath == "" {
		fs.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*logPath)
	fatalIf(err)
	defer f.Close()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Model.Seed = *seed
	cfg.SkipClean = *skipClean
	if *epochs > 0 {
		cfg.Model.Epochs = *epochs
	}
	if *window > 0 {
		cfg.Model.Window = *window
	}
	if *topP > 0 {
		cfg.Model.TopP = *topP
	}
	if *hidden > 0 {
		cfg.Model.Hidden = *hidden
		for cfg.Model.Hidden%cfg.Model.Heads != 0 {
			cfg.Model.Heads--
		}
	}
	cfg.Model.TrainWorkers = *trainWorkers
	cfg.Model.BatchSize = *batchSize

	// Training instrumentation: the same obs gauges the serving layer
	// exports feed the progress printout, and -metrics-out persists the
	// final exposition for offline comparison of training runs.
	reg := obs.NewRegistry()
	epochLoss := reg.Gauge("ucad_train_epoch_loss", "Mean per-position loss of the most recent epoch.")
	epochsTotal := reg.Counter("ucad_train_epochs_total", "Training epochs completed.")
	epochSeconds := reg.Histogram("ucad_train_epoch_seconds", "Wall-clock duration per training epoch.",
		obs.ExponentialBuckets(0.01, 4, 8))
	workersGauge := reg.Gauge("ucad_train_workers", "Data-parallel training workers in use.")
	workersGauge.Set(float64(cfg.Model.EffectiveTrainWorkers()))

	fmt.Printf("training: %d workers, batch size %d\n",
		cfg.Model.EffectiveTrainWorkers(), *batchSize)
	start := time.Now()
	lastEpoch := start
	u, err := core.TrainFromLog(cfg, f, func(epoch int, loss float64) {
		now := time.Now()
		epochLoss.Set(loss)
		epochsTotal.Inc()
		epochSeconds.Observe(now.Sub(lastEpoch).Seconds())
		lastEpoch = now
		fmt.Printf("epoch %3d  loss %.5f\n", epoch+1, epochLoss.Value())
	})
	fatalIf(err)
	fmt.Printf("trained on %d templates in %s (noise removal: %d -> %d sessions)\n",
		u.Vocab.Size()-1, time.Since(start).Round(time.Millisecond),
		u.Report.Input, u.Report.Output)
	if n := epochsTotal.Value(); n > 0 {
		fmt.Printf("epochs %d  final loss %.5f  median epoch %s\n",
			n, epochLoss.Value(), time.Duration(epochSeconds.Quantile(0.5)*float64(time.Second)).Round(time.Millisecond))
	}
	if *metricsOut != "" {
		fatalIf(wal.WriteAtomic(*metricsOut, reg.WriteText))
		fmt.Println("training metrics written to", *metricsOut)
	}

	// Atomic save: a crash mid-write can truncate a directly written
	// model file into an unloadable stub; WriteAtomic (temp file, fsync,
	// rename, dir fsync) leaves either the old model or the new one.
	fatalIf(wal.WriteAtomic(*modelPath, u.Save))
	fmt.Println("model written to", *modelPath)
}

func runDetect(args []string) {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	logPath := fs.String("log", "", "audit log (JSON lines) of active sessions")
	modelPath := fs.String("model", "ucad.model", "trained model file")
	verbose := fs.Bool("v", false, "print every session verdict")
	fs.Parse(args)
	if *logPath == "" {
		fs.Usage()
		os.Exit(2)
	}

	u, err := core.LoadFile(*modelPath)
	fatalIf(err)

	lf, err := os.Open(*logPath)
	fatalIf(err)
	defer lf.Close()
	ops, err := session.ReadLog(lf)
	fatalIf(err)
	sessions := session.Sessionize(ops, session.IdleGap)

	flagged := 0
	for _, s := range sessions {
		bad := u.DetectSession(s)
		if len(bad) == 0 {
			if *verbose {
				fmt.Printf("OK      %-24s user=%s ops=%d\n", s.ID, s.User, len(s.Ops))
			}
			continue
		}
		flagged++
		fmt.Printf("ANOMALY %-24s user=%s ops=%d suspicious=%v\n", s.ID, s.User, len(s.Ops), bad)
		for _, idx := range bad {
			if idx < len(s.Ops) {
				fmt.Printf("        op[%d]: %s\n", idx, s.Ops[idx].SQL)
			}
		}
	}
	fmt.Printf("%d of %d sessions flagged\n", flagged, len(sessions))
	if flagged > 0 {
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucad:", err)
		os.Exit(1)
	}
}
