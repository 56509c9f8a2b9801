// Command ucad-feed is the streaming front door: it tails a database
// audit log (JSONL or CSV), normalizes and sessionizes the statements,
// and delivers them in batches to a ucad-serve /v1/events endpoint.
//
// Usage:
//
//	ucad-feed -source audit.jsonl -serve-url http://127.0.0.1:8844 \
//	          [-format jsonl] [-tenant default] [-offset-dir DIR] \
//	          [-batch 64] [-flush-interval 200ms] [-poll 50ms] \
//	          [-session-idle 10m] [-failover-rewind 30s] [-metrics-addr :9144]
//
// With -offset-dir the feeder is resumable: after every acknowledged
// batch it commits a checkpoint — the byte offset of the tailed file
// (pinned to its inode, so log rotation in between is handled) plus the
// sessionizer's per-client sequence counters. Each source has its own
// checkpoint store under the offset dir, <base>-<hash>.ckpt (the hash
// is of the source's absolute path, so two logs sharing a base name do
// not share resume state): a write-ahead log with one small fsynced
// record per batch, holding only the sessions that batch touched, and
// a full snapshot whenever that log has grown past the last one. A
// feeder killed at any instant and restarted on the same offset dir
// re-reads only the uncommitted suffix, at most one batch; replayed
// events carry the same sequence numbers and the server deduplicates
// them, so every session is scored exactly once. A single-file
// checkpoint left by an older ucad-feed (<base>.ckpt) is refused rather
// than silently replaced by a restart from offset 0.
//
// The source file may rotate (rename-and-recreate is followed to the
// last byte, copytruncate restarts at the head) and may not exist yet
// at startup. Once caught up, the tailer waits for the file to change
// (inotify on Linux; -poll is then only the fallback re-check period,
// and the only wait elsewhere). Backpressure from the server (503)
// pauses the tail with capped exponential backoff — the audit log
// itself is the buffer, and the lag is exported as ucad_feed_lag_bytes
// when -metrics-addr is set.
//
// -serve-url accepts a comma-separated failover list (primary first,
// then warm standbys). When the acknowledging server changes — the
// primary died and a standby took over — the feeder rewinds the tail by
// at least -failover-rewind and redelivers: the standby deduplicates
// the part it already replayed from the primary's shipped WAL and
// appends the tail the primary never shipped, so sessions stay
// exactly-once across the failover.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/ucad/ucad/internal/feed"
	"github.com/ucad/ucad/internal/session"
)

func main() {
	source := flag.String("source", "", "audit log file to tail (required)")
	format := flag.String("format", "jsonl", "audit log format: jsonl or csv")
	serveURL := flag.String("serve-url", "", "ucad-serve base URL(s), comma-separated in failover order, e.g. http://primary:8844,http://standby:8845 (required)")
	failoverRewind := flag.Duration("failover-rewind", 30*time.Second, "replication-lag bound assumed on URL-list failover: redeliver at least this much of the stream to the new server (0 disables the rewind)")
	tenantID := flag.String("tenant", "", "target tenant (sent as the X-UCAD-Tenant header; empty = server default)")
	offsetDir := flag.String("offset-dir", "", "directory for resume checkpoints; empty disables resume")
	batch := flag.Int("batch", 64, "events per delivery batch")
	flush := flag.Duration("flush-interval", 200*time.Millisecond, "a partial batch is delivered this long after its first event")
	poll := flag.Duration("poll", 50*time.Millisecond, "fallback re-check period; on Linux the tailer wakes on file change")
	sessionIdle := flag.Duration("session-idle", session.IdleGap, "sessionization idle cut-off (match the server's -idle-timeout)")
	metricsAddr := flag.String("metrics-addr", "", "expose feeder /metrics and /healthz here; empty disables")
	flag.Parse()

	if *source == "" || *serveURL == "" {
		fmt.Fprintln(os.Stderr, "ucad-feed: -source and -serve-url are required")
		flag.Usage()
		os.Exit(2)
	}

	metrics := feed.NewMetrics(nil)
	sourceName := filepath.Base(*source)
	sm := metrics.Source(sourceName)

	tailer, err := feed.NewTailer(feed.TailerConfig{
		Path:    *source,
		Format:  *format,
		Poll:    *poll,
		Metrics: sm,
	})
	fatalIf(err)
	defer tailer.Close()

	ckptPath := ""
	if *offsetDir != "" {
		fatalIf(os.MkdirAll(*offsetDir, 0o755))
		legacy := filepath.Join(*offsetDir, sourceName+".ckpt")
		if fi, err := os.Stat(legacy); err == nil && !fi.IsDir() {
			fatalIf(fmt.Errorf("%s is a single-file checkpoint from an older ucad-feed; its resume state is not read, and starting over beside it could re-score closed sessions: move it out of -offset-dir to accept a restart from offset 0", legacy))
		}
		name, err := checkpointName(*source)
		fatalIf(err)
		ckptPath = filepath.Join(*offsetDir, name)
	}

	var urls []string
	for _, u := range strings.Split(*serveURL, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fatalIf(fmt.Errorf("-serve-url %q contains no URLs", *serveURL))
	}
	deliver := &feed.HTTPDeliverer{
		URL:     urls[0],
		URLs:    urls,
		Tenant:  *tenantID,
		Metrics: sm,
	}

	feeder, err := feed.NewFeeder(feed.FeederConfig{
		Source:         tailer,
		Deliver:        deliver,
		Tenant:         *tenantID,
		CheckpointPath: ckptPath,
		BatchSize:      *batch,
		FlushInterval:  *flush,
		Idle:           *sessionIdle,
		FailoverRewind: *failoverRewind,
		Metrics:        sm,
	})
	fatalIf(err)

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Registry.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ucad-feed: metrics listener:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	resume := "no checkpointing"
	if ckptPath != "" {
		resume = "checkpoints in " + ckptPath
	}
	fmt.Printf("feeding %s (%s) -> %s tenant=%q batch=%d (%s)\n",
		*source, *format, *serveURL, *tenantID, *batch, resume)

	err = feeder.Run(ctx)
	switch {
	case err == nil || ctx.Err() != nil:
		fmt.Println("ucad-feed: drained, shutting down")
	default:
		fatalIf(err)
	}
}

// checkpointName derives the source's checkpoint store name from its
// absolute path: the base name, for the operator, plus 8 hex digits of
// the path's FNV-1a hash, so /db1/audit.jsonl and /db2/audit.jsonl in
// one -offset-dir keep separate resume state.
func checkpointName(source string) (string, error) {
	abs, err := filepath.Abs(source)
	if err != nil {
		return "", fmt.Errorf("checkpoint name for %s: %w", source, err)
	}
	h := fnv.New32a()
	h.Write([]byte(abs))
	return fmt.Sprintf("%s-%08x.ckpt", filepath.Base(abs), h.Sum32()), nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucad-feed:", err)
		os.Exit(1)
	}
}
