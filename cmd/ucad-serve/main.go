// Command ucad-serve runs the online detection loop of §5.2–§5.3 as an
// HTTP service: database frontends stream raw statement events in,
// sessions assemble per client, every operation is scored incrementally
// against a trained model, and flagged operations surface as alerts
// while the session is still active.
//
// Usage:
//
//	ucad-serve -model ucad.model [-addr :8844] [-pprof]
//	           [-workers N] [-shards N] [-queue N] [-batch N] [-idle-timeout D]
//	           [-score-cache-size ROWS]
//	           [-retrain-after N] [-retrain-epochs N] [-train-workers N] [-batch-size N]
//	           [-max-resolved-alerts N] [-resolved-alert-ttl D]
//	           [-data-dir DIR] [-fsync always|interval|never] [-snapshot-interval D] [-segment-bytes N]
//	ucad-serve -tenants tenants.json -data-dir DIR ...
//	ucad-serve -data-dir DIR -replicate-from http://primary:8844 [-replica-poll D] [-auto-promote-after D] ...
//
// That is the whole flag surface (ucad-serve -h prints the defaults);
// flags_test.go fails when a flag is added or removed without this
// block and README following.
//
// Without -tenants the process serves exactly one tenant, "default",
// from -model — the same registry, API and <data-dir>/tenants/default/
// layout as any other tenant. With -tenants the process multiplexes one
// pipeline per tenant: the file is a JSON array of specs like
//
//	[{"id": "scenario1", "model": "s1.model"},
//	 {"id": "syslog",    "model": "logs.model"}]
//
// and each tenant gets its own model, WAL, snapshots, and checkpoint
// manifest under <data-dir>/tenants/<id>/. Tenants created later
// through the admin API persist there too and come back on restart.
// A data directory from before tenants existed (wal/ and checkpoints/
// directly under -data-dir) is refused at boot; move it once:
//
//	mkdir -p DIR/tenants/default && mv DIR/wal DIR/checkpoints DIR/tenant.json DIR/tenants/default/
//
// A client's session closes after -idle-timeout of inactivity; the
// close-out sweep runs every quarter of that, within 250ms..15s.
//
// Ingestion is sharded: sessions partition across -shards assembler
// shards by client hash, each shard owning its own session map, WAL
// stream, and scoring queue. Restarting with a different -shards value
// is safe — restore remaps the persisted state to the new layout.
//
// With -data-dir the service is crash-safe: every accepted event is
// appended to the owning tenant's write-ahead log before it is
// acknowledged, open sessions are snapshotted on -snapshot-interval,
// and a restart on the same directory restores every tenant
// independently (load newest snapshot + replay the WAL suffix,
// truncating a torn tail). Fine-tune rounds additionally write atomic
// model checkpoints; boot prefers the newest checkpoint that loads,
// rolling back through the manifest past any that do not.
//
// With -data-dir the process is also a replication primary: sealed WAL
// segments, snapshots, model checkpoints and tenant specs are served
// read-only under /v1/replica/. A second process started with
// -replicate-from pointed at it runs as a warm standby: it mirrors every
// tenant into its own -data-dir and keeps replaying the shipped stream
// into tenants that are durable but not yet live (the restart recovery
// path, fed over HTTP). POST /v1/promote — or -auto-promote-after of
// primary unreachability — stops following, syncs once more and takes
// them live. GET /v1/replication reports standby lag.
//
// API:
//
//	POST   /v1/events              {"client_id":"c1","user":"u","sql":"SELECT ..."} or a JSON array;
//	                               routed by a "tenant" field, X-UCAD-Tenant header, or ?tenant=
//	GET    /v1/alerts?status=open  flagged sessions awaiting expert review (?tenant= selects)
//	POST   /v1/alerts/{id}/resolve {"verdict":"false_alarm"|"confirmed"}
//	GET    /v1/tenants             tenant list; POST creates, DELETE /v1/tenants/{id} removes
//	PUT    /v1/tenants/{id}/model  hot-swap the tenant's model (body: a ucad train model file)
//	GET    /v1/tenants/{id}/stats  per-tenant counters (also .../alerts, .../drain)
//	GET    /healthz                liveness
//	GET    /stats                  serving counters (JSON; ?tenant= selects)
//	GET    /metrics                Prometheus text exposition, every family labelled by tenant
//	GET    /debug/pprof/           Go profiling endpoints (only with -pprof)
//
// Train a model first with `ucad train` (see cmd/ucad).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/replica"
	"github.com/ucad/ucad/internal/scorecache"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/tenant"
	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/wal"
)

// shutdownTimeout is the graceful shutdown budget on SIGTERM/SIGINT.
const shutdownTimeout = 10 * time.Second

func main() {
	def := serve.DefaultConfig()
	modelPath := flag.String("model", "ucad.model", "trained model file (ucad train); the default for tenants without one")
	tenantsFile := flag.String("tenants", "", "JSON tenant specs ([{\"id\":...,\"model\":...}]); empty serves a single default tenant")
	addr := flag.String("addr", ":8844", "HTTP listen address")
	workers := flag.Int("workers", def.Workers, "scoring worker-pool size per tenant")
	shards := flag.Int("shards", 0, "ingest shards per tenant (sessions partitioned by client hash; <=0 uses all CPUs)")
	queue := flag.Int("queue", def.QueueSize, "scoring queue capacity per tenant (backpressure bound)")
	batch := flag.Int("batch", def.Batch, "scoring micro-batch size per worker pass")
	idle := flag.Duration("idle-timeout", def.IdleTimeout, "close a client session after this inactivity (swept every quarter of it, within 250ms..15s)")
	retrainAfter := flag.Int("retrain-after", 0, "fine-tune a tenant when its verified pool reaches this many sessions (0 disables)")
	retrainEpochs := flag.Int("retrain-epochs", def.RetrainEpochs, "epochs per fine-tune round")
	trainWorkers := flag.Int("train-workers", 0, "data-parallel workers per fine-tune round (<=0 uses all CPUs)")
	batchSize := flag.Int("batch-size", 16, "windows per SGD step during fine-tune (gradients summed across the mini-batch)")
	maxResolved := flag.Int("max-resolved-alerts", def.MaxResolvedAlerts, "resolved alerts retained in memory per tenant (negative = unbounded)")
	resolvedTTL := flag.Duration("resolved-alert-ttl", def.ResolvedAlertTTL, "evict resolved alerts after this age (negative disables)")
	dataDir := flag.String("data-dir", "", "durability root (per-tenant WAL + snapshots + checkpoints); empty disables durability")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always (durable per event), interval, never")
	snapshotEvery := flag.Duration("snapshot-interval", time.Minute, "open-session snapshot/compaction period (0 disables the loop)")
	segmentBytes := flag.Int64("segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation cap in bytes")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling under /debug/pprof/")
	cacheSize := flag.Int("score-cache-size", 4096, "similarity rows memoized per tenant (0 disables the score cache)")
	replicateFrom := flag.String("replicate-from", "", "primary base URL to follow as a warm standby (requires -data-dir; tenants mirror from the primary and serve after POST /v1/promote)")
	replicaPoll := flag.Duration("replica-poll", 2*time.Second, "standby sync period under -replicate-from")
	autoPromote := flag.Duration("auto-promote-after", 0, "standby self-promotes after the primary has been unreachable this long (0 = manual promotion only)")
	flag.Parse()

	policy, err := wal.ParseSyncPolicy(*fsync)
	fatalIf(err)

	// Resolve the boot-time tenant set: the -tenants file, or the one
	// default tenant.
	specs := []tenant.Spec{{ModelPath: *modelPath}}
	if *tenantsFile != "" {
		specs = nil
		b, err := os.ReadFile(*tenantsFile)
		fatalIf(err)
		fatalIf(json.Unmarshal(b, &specs))
		if len(specs) == 0 {
			fatalIf(fmt.Errorf("%s: no tenant specs", *tenantsFile))
		}
		for i := range specs {
			if specs[i].ModelPath == "" {
				specs[i].ModelPath = *modelPath
			}
		}
	}

	if *replicateFrom != "" && *dataDir == "" {
		fatalIf(fmt.Errorf("-replicate-from requires -data-dir (the standby persists the mirrored WAL)"))
	}

	// Bind before boot: an occupied or mistyped -addr must fail before any
	// tenant's WAL is opened, or the exit would leave every log unsealed
	// and turn the next start into a crash recovery.
	ln, err := net.Listen("tcp", *addr)
	fatalIf(err)

	opts := tenant.Options{
		Root: *dataDir,
		Serve: serve.Config{
			Workers:           *workers,
			Shards:            *shards,
			QueueSize:         *queue,
			Batch:             *batch,
			IdleTimeout:       *idle,
			SweepEvery:        min(max(*idle/4, 250*time.Millisecond), def.SweepEvery),
			RetrainAfter:      *retrainAfter,
			RetrainEpochs:     *retrainEpochs,
			MaxResolvedAlerts: *maxResolved,
			ResolvedAlertTTL:  *resolvedTTL,
		},
		Durability: serve.DurabilityConfig{
			Fsync:         policy,
			SegmentBytes:  *segmentBytes,
			SnapshotEvery: *snapshotEvery,
		},
		// The one place a serving model is configured: every model a
		// tenant serves passes through it (boot, admin create, hot swap,
		// and each checkpoint a standby's replayer installs). The persisted
		// config keeps whatever parallelism a model was trained with; the
		// serving flags decide what fine-tune rounds use on this host.
		// Scoring is always the float32 kernel (float64 stays the training
		// and reference path), with a fresh score cache — detect.Online
		// carries the running tenant's cache (and its counters) onto a
		// hot-swapped model in place of the fresh one.
		Tune: func(u *core.UCAD) {
			u.Model.SetTrainParallelism(*trainWorkers, *batchSize)
			u.Model.SetScorePrecision(transdas.PrecisionFloat32)
			if *cacheSize > 0 {
				u.Model.SetScoreCache(scorecache.New(*cacheSize))
			}
		},
	}
	reg := tenant.New(opts)
	fmt.Printf("scoring: %s kernel, score cache %d rows per tenant\n", transdas.PrecisionFloat32, *cacheSize)
	if *replicateFrom == "" {
		fatalIf(reg.Boot(specs))
		for _, t := range reg.List() {
			fmt.Printf("tenant %s: model loaded from %s\n", t.ID(), t.ModelSource())
			if t.Dir() == "" {
				continue
			}
			rst := t.RestoreStats()
			how := "clean shutdown"
			switch {
			case rst.CleanSeal:
			case rst.Records == 0 && rst.SnapshotSeq == 0 && rst.Sessions == 0:
				how = "fresh data dir"
			default:
				how = "crash recovery"
			}
			fmt.Printf("tenant %s: restored %d open sessions (%s; %d WAL records replayed, fsync=%s)\n",
				t.ID(), rst.Sessions, how, rst.Records, *fsync)
		}
	}

	front := reg.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", front)
	// One shared replication metrics family: a standby is both a
	// follower and (post-promotion) a shippable primary, and the obs
	// registry rejects double registration.
	var replMetrics *replica.Metrics
	if *dataDir != "" {
		replMetrics = replica.NewMetrics(reg.Hub().Registry)
		// Primary side of replication: expose the sealed WAL, snapshots,
		// checkpoints and specs of every tenant.
		shipper := &replica.Shipper{
			Root:    filepath.Join(*dataDir, "tenants"),
			Metrics: replMetrics,
		}
		mux.Handle("/v1/replica/", shipper.Handler())
	}
	if *replicateFrom != "" {
		var follower *replica.Follower
		// quiesce is the first half of going live, straight-line and once
		// per process: stop the follower loop, then pull one final sync so
		// the standby holds everything the primary had sealed. reg.Promote
		// is the second half. Once, because after promotion the tenants'
		// wal/ directories are this process's own logs — a later sync
		// would mirror the primary over them.
		quiesce := sync.OnceFunc(func() {
			follower.Stop()
			follower.SyncOnce(context.Background())
		})
		f, err := replica.NewFollower(replica.FollowerConfig{
			PrimaryURL:       *replicateFrom,
			Root:             *dataDir,
			Interval:         *replicaPoll,
			AutoPromoteAfter: *autoPromote,
			Metrics:          replMetrics,
			OpenTarget: func(id, dir string) (replica.Target, error) {
				tn, err := reg.CreateReplica(id)
				if err != nil {
					return nil, err
				}
				fmt.Printf("tenant %s: replicating from %s\n", id, *replicateFrom)
				return tn, nil
			},
			OnPrimaryDown: func() {
				fmt.Printf("primary unreachable for %s: promoting standby\n", *autoPromote)
				quiesce()
				promoted, err := reg.Promote()
				if err != nil {
					fmt.Fprintln(os.Stderr, "ucad-serve: auto-promote:", err)
				}
				fmt.Printf("promoted tenants: %v\n", promoted)
			},
		})
		fatalIf(err)
		follower = f
		go follower.Run(context.Background())
		defer follower.Stop()
		// Manual promotion is the same two steps: quiesce here, then the
		// registry's own handler (a primary, with no follower to quiesce,
		// reaches that handler directly and answers 409 not_replica).
		mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
			quiesce()
			front.ServeHTTP(w, r)
		})
		mux.HandleFunc("GET /v1/replication", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(follower.Status())
		})
		fmt.Printf("warm standby: following %s every %s (promote via POST /v1/promote)\n", *replicateFrom, *replicaPoll)
	}
	if *pprofOn {
		// Explicit registration keeps the profiling surface off unless
		// asked for — no blanket net/http/pprof DefaultServeMux import.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("serving %d tenant(s) on %s with %d workers each (queue %d, idle timeout %s)\n",
		len(reg.List()), *addr, *workers, *queue, *idle)
	fmt.Printf("observability: GET /metrics (Prometheus text, tenant-labelled)")
	if *pprofOn {
		fmt.Printf(", GET /debug/pprof/")
	}
	fmt.Println()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("\n%s: draining...\n", sig)
	case err := <-errc:
		fatalIf(err)
	}

	// Quiesce ingestion first, then shut every tenant down gracefully:
	// durable tenants drain their queues, snapshot their open sessions
	// (they come back on the next boot) and seal their logs; non-durable
	// ones flush open sessions through close-out detection instead.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	srv.Shutdown(ctx)
	if err := reg.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ucad-serve: shutdown:", err)
	}
	for _, t := range reg.List() {
		st := t.Stats()
		fmt.Printf("tenant %s done: %d events, %d sessions closed, %d open preserved, %d flagged, %d alerts open\n",
			t.ID(), st.EventsAccepted, st.SessionsClosed, st.SessionsOpen, st.SessionsFlagged, st.AlertsOpen)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucad-serve:", err)
		os.Exit(1)
	}
}
