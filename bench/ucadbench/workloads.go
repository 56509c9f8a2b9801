package main

import (
	"runtime"

	"github.com/ucad/ucad/internal/transdas"
	"github.com/ucad/ucad/internal/wal"
	"github.com/ucad/ucad/internal/workload"
)

// Every run is sized to the box the repository is grown on: two cores.
// The generator uses nCallers goroutines (one per tenant, which is also
// what keeps per-client order and makes a per-tenant Drain safe), and
// each tenant's pipeline runs sutWorkers scoring workers over sutShards
// ingest shards. Everything else is the ucad-serve / ucad-feed flag
// default unless a workload says otherwise.
const (
	sutProcs   = 2 // the cores the system under test is sized for
	nCallers   = 2
	sutWorkers = 2
	sutShards  = 2
	sutQueue   = 1024 // ucad-serve -queue default
	sutBatch   = 16   // ucad-serve -batch default
	cacheRows  = 4096 // ucad-serve -score-cache-size default

	// steadyShare of --seconds goes to the open-loop phase, the rest to
	// the saturate phase.
	steadyShare = 0.55

	// drainChunk bounds a closed-loop in-process caller's outstanding
	// events: it ingests this many, then waits for their verdicts. Below
	// the per-shard queue (sutQueue/sutShards) so no event is ever
	// refused, large enough that the wait is a few percent of the chunk.
	drainChunk = 448
)

type frontKind int

const (
	frontInproc frontKind = iota // tenant.Registry.Ingest called directly
	frontHTTP                    // POST /v1/events over loopback
	frontFeed                    // JSONL file -> feed.Feeder -> HTTP
)

// modelShape is a tenant's Trans-DAS configuration and how long it is
// trained for. Training is deterministic and seeded per tenant, not from
// --seed: the model is part of the system under test, the traffic is the
// input.
type modelShape struct {
	hidden, heads, blocks, window int
	epochs, stride, sessions      int
	precision                     transdas.Precision
}

var (
	smallModel = modelShape{hidden: 16, heads: 2, blocks: 2, window: 8, epochs: 2, stride: 1, sessions: 24}
	paperModel = modelShape{hidden: 64, heads: 8, blocks: 2, window: 30, epochs: 1, stride: 12, sessions: 24,
		precision: transdas.PrecisionFloat32}
	smokeModel = modelShape{hidden: 8, heads: 2, blocks: 1, window: 8, epochs: 1, stride: 2, sessions: 12}
)

// spec is one benchmark workload. Rates are events per second summed
// over both callers and are fixed here: ≈40–50 % of what the seed commit
// sustains on the two-core box, so steady latency measures service and
// not queueing.
type spec struct {
	name       string
	front      frontKind
	grammar    func() workload.Spec
	model      modelShape
	durable    bool
	fsync      wal.SyncPolicy
	steadyRate float64 // events/s in the open-loop phase
	unitEvents int     // events per scheduled unit
	// satRate sizes the saturate phase: it sends satRate × saturate
	// seconds events (capped at satCap), a fixed count so that a fixed
	// seed does fixed work. Set near the seed commit's capacity, so the
	// phase lasts about its share of --seconds there.
	satRate float64
	satCap  int
	// traceEvents is how many steady events the traced passes replay.
	traceEvents int
}

// specs lists the workloads; each entry says why it exists (BENCHMARK.json
// carries the same reasons for the tracking driver).
var specs = []spec{
	{
		name: "http-durable",
		// production path: JSON batches of 32 over loopback HTTP into a
		// durable registry with fsync=always; per-event fsync dominates,
		// scoring and JSON barely show
		front: frontHTTP, grammar: workload.ScenarioI, model: smallModel,
		durable: true, fsync: wal.SyncAlways,
		steadyRate: 1500, unitEvents: 32, satRate: 5000, satCap: 80000, traceEvents: 6400,
	},
	{
		name: "inproc-hot",
		// HTTP, JSON and WAL bypassed and the score cache absorbs most forward
		// passes, so tokenize, assemble, queueing, cache and alert bookkeeping
		// do the work; an HTTP/WAL/kernel change must not move it
		front: frontInproc, grammar: workload.ScenarioI, model: smallModel,
		steadyRate: 20000, unitEvents: 16, satRate: 150000, satCap: 600000, traceEvents: 20000,
	},
	{
		name: "inproc-cold",
		// paper-shaped float32 model on the wide Scenario-II grammar, cache
		// attached but naturally missing, so the fused forward pass dominates;
		// ingest-path changes must not move it
		front: frontInproc, grammar: func() workload.Spec { return workload.ScenarioII(0.5) }, model: paperModel,
		steadyRate: 3000, unitEvents: 1, satRate: 6000, satCap: 60000, traceEvents: 5000,
	},
	{
		name: "feed-tail",
		// the only log-line-in to alert-out path: JSONL tailer, sessionizer
		// and checkpoints feeding HTTP with fsync=interval, so feed parsing
		// and the JSON request/response path dominate, through the epoch/seq
		// dedupe branch
		front: frontFeed, grammar: workload.ScenarioI, model: smallModel,
		durable: true, fsync: wal.SyncInterval,
		steadyRate: 6000, unitEvents: 20, satRate: 13000, satCap: 160000, traceEvents: 9600,
	},
}

// awakeCPUs is how many CPUs the keep-awake helper (keepawake.go) spins
// on during a run of this workload: all of them, less one for the host's
// disk I/O where the measured path reaches the disk.
func (s spec) awakeCPUs() int {
	n := runtime.NumCPU()
	if s.durable {
		n--
	}
	return n
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes are the event counts of one run, derived from --seconds.
type sizes struct {
	steadyEvents int // per run, both callers
	satEvents    int
	traceEvents  int
}

func (s spec) sizes(seconds float64) sizes {
	steady := seconds * steadyShare
	sat := seconds - steady
	z := sizes{
		steadyEvents: int(s.steadyRate * steady),
		satEvents:    int(s.satRate * sat),
		traceEvents:  s.traceEvents,
	}
	if z.satEvents > s.satCap {
		z.satEvents = s.satCap
	}
	if z.traceEvents > z.steadyEvents {
		z.traceEvents = z.steadyEvents
	}
	// Whole units per caller, so both callers run the same schedule.
	per := s.unitEvents * nCallers
	z.steadyEvents -= z.steadyEvents % per
	z.satEvents -= z.satEvents % per
	z.traceEvents -= z.traceEvents % per
	return z
}
