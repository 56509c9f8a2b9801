package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/ucad/ucad/internal/serve"
)

// injectAt is the steady event (of caller 0) the self-test faults hit.
const injectAt = 100

// failedShareBound is the absolute share of attempted events that may
// fail before a run is incorrect.
const failedShareBound = 0.001

// lateBoundUs marks a run invalid (not slow): above it the generator, not
// the system, set the latencies.
const lateBoundUs = 5000

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	profile  bool
	outDir   string
	// setups is how many times set-up runs (the median is reported; the
	// last one is measured).
	setups int
	// inject is the self-test fault ("drop", "dup" or "flip"): it proves
	// the correctness check bites.
	inject string
	// closeRegistry makes teardown close the registry (tests, where many
	// runs share a process); a command-line run exits instead.
	closeRegistry bool
}

// metric is one reported value. N is the sample count behind a timing;
// Unsupported marks a percentile with fewer than minBeyond samples
// beyond it (only tolerated in smoke runs).
type metric struct {
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	N           int     `json:"n,omitempty"`
	Unsupported bool    `json:"unsupported,omitempty"`
}

// report is the detailed result of one run; line() is the contract form.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Invalid   string            `json:"invalid,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  map[string]int    `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Tails are the steady phase's higher percentiles. They are printed
	// and filed but carry no regression bound: on a two-core box shared
	// with the generator their run-to-run spread is wider than any bound
	// worth setting (see bench/README.md).
	Tails  map[string]metric `json:"tails,omitempty"`
	Budget []budgetRow       `json:"budget,omitempty"`
}

func (rp *report) set(name string, v float64, unit string) {
	rp.Metrics[name] = metric{Value: v, Unit: unit}
}

func (rp *report) fail(kind string, n int) {
	if n <= 0 {
		return
	}
	if rp.Failures == nil {
		rp.Failures = make(map[string]int)
	}
	rp.Failures[kind] += n
	rp.Failed += n
}

// percentile reports quantile q of rec under name, enforcing the
// samples-beyond rule.
func (rp *report) percentile(name string, rec *recorder, q float64, smoke bool) error {
	s := rec.sorted()
	m := metric{Value: orderStat(s, q), Unit: "us", N: len(s), Unsupported: !supported(len(s), q)}
	rp.Metrics[name] = m
	if m.Unsupported && !smoke {
		return fmt.Errorf("%s: %d samples leave fewer than %d beyond the %.0fth percentile", name, len(s), minBeyond, q*100)
	}
	return nil
}

// setUp generates the inputs and boots the system cfg.setups times,
// keeping the last; it returns each repetition's duration.
func setUp(cfg runConfig, sp spec, z sizes) (in []*callerInput, s *sut, took []float64, err error) {
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.stop(true) // nothing was ingested: closing is cheap
			os.RemoveAll(s.dir)
		}
		dir, derr := os.MkdirTemp(cfg.outDir, "run-")
		if derr != nil {
			return nil, nil, nil, derr
		}
		t0 := time.Now()
		in = genInputs(sp, z, cfg.seed)
		if s, err = bootSUT(sp, dir); err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return in, s, took, nil
}

// execute performs one benchmark run and returns its report. The error
// is for runs that could not be measured at all; a measured run whose
// outputs are wrong returns a report with Correct == false.
func execute(cfg runConfig) (*report, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.smoke {
		sp.model = smokeModel
	}
	if cfg.inject != "" && sp.front != frontInproc {
		return nil, fmt.Errorf("-inject works on the in-process workloads only")
	}
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	seconds := cfg.seconds
	if cfg.trace {
		// The traced run spends half its time on a shorter untraced pass
		// (for the program's own counters) and the rest on traced passes.
		seconds /= 2
	}
	z := sp.sizes(seconds)
	if z.steadyEvents == 0 || z.satEvents == 0 {
		return nil, fmt.Errorf("--seconds %g is too short for %s", cfg.seconds, sp.name)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	rp := &report{Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: make(map[string]metric)}

	in, s, setupTook, err := setUp(cfg, sp, z)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	defer func() { s.stop(cfg.closeRegistry) }()
	r := &run{cfg: cfg, sp: sp, z: z, in: in, sut: s, base: time.Now(), clk: wallClock{}}

	var image string
	hub0 := scrapeRegistry(s.reg.Hub().Registry)
	if cfg.trace {
		r.depth.start(s)
	}
	steady := r.steady()
	if steady.err != nil {
		return nil, fmt.Errorf("steady phase: %w", steady.err)
	}
	hubSteady := scrapeRegistry(s.reg.Hub().Registry).minus(hub0)
	alerts := r.collectAlerts()
	steadyStats := r.stats()
	if cfg.trace && sp.name == "http-durable" {
		// A crash image: the data dir as a kill -9 right now would leave it.
		image = filepath.Join(s.dir, "image")
		if err := copyTree(s.dataRoot(), image); err != nil {
			return nil, err
		}
	}
	sat := r.saturate()
	if sat.err != nil {
		return nil, fmt.Errorf("saturate phase: %w", sat.err)
	}
	r.depth.stop()
	endStats := r.stats()

	// Outputs first: wrong verdicts make every other number moot.
	chk, err := r.check(alerts, steadyStats, endStats)
	if err != nil {
		return nil, err
	}
	rp.Attempted = steady.events + sat.events + steady.refused + sat.refused
	rp.fail("refused", steady.refused+sat.refused)
	for kind, n := range chk.failures {
		rp.fail(kind, n)
	}
	// A refusal is the system asking the client to slow down: tolerated
	// up to the bound. A wrong, lost or duplicated verdict is never
	// tolerated, however small its share of a large run.
	share := float64(rp.Failed) / float64(rp.Attempted)
	rp.Correct = rp.Failed == rp.Failures["refused"] && share <= failedShareBound

	late := orderStat(steady.late.sorted(), 0.99)
	if late > lateBoundUs {
		rp.Invalid = fmt.Sprintf("generator ran late (p99 %.0f us > %d us): latencies measure the generator, not the system", late, lateBoundUs)
	}

	delays := r.alertDelays(alerts)
	tails := steadyTails(steady.ack, delays)
	if cfg.trace {
		for name, m := range tails {
			rp.Metrics["steady."+name] = metric{Value: m.Value, Unit: m.Unit}
		}
		if err := r.perLayer(rp, layerInputs{
			steady: steady, sat: sat, hubSteady: hubSteady,
			hubAll:      scrapeRegistry(s.reg.Hub().Registry).minus(hub0),
			steadyStats: steadyStats, endStats: endStats,
			image: image, lateP99: late, failedShare: share,
		}); err != nil {
			return nil, err
		}
		return rp, nil
	}

	rp.set("setup_s", median(setupTook), "s")
	rp.set("capacity_events_per_s", float64(sat.events)/sat.wall.Seconds(), "1/s")
	rp.set("cpu_ms_per_kevent", steady.cpu.Seconds()*1e3/(float64(steady.events)/1e3), "ms")
	rp.Tails = tails
	if err := rp.percentile("ack_p50_us", steady.ack, 0.50, cfg.smoke); err != nil {
		return nil, err
	}
	if err := rp.percentile("alert_delay_p50_us", delays, 0.50, cfg.smoke); err != nil {
		return nil, err
	}
	// Live heap last: drop the generator's inputs so what remains is the
	// system's own state (open sessions, alerts, caches, WAL buffers).
	r.in, in, alerts, chk = nil, nil, nil, nil
	rp.set("live_heap_mb", liveHeapMB(), "MB")
	return rp, nil
}

// steadyTails reports the steady phase's upper percentiles, each marked
// unsupported when fewer than minBeyond samples lie beyond it.
func steadyTails(ack, delays *recorder) map[string]metric {
	out := make(map[string]metric)
	for _, t := range []struct {
		name string
		rec  *recorder
		q    float64
	}{
		{"ack_p90_us", ack, 0.90}, {"ack_p99_us", ack, 0.99},
		{"alert_delay_p90_us", delays, 0.90}, {"alert_delay_p95_us", delays, 0.95},
	} {
		s := t.rec.sorted()
		out[t.name] = metric{Value: orderStat(s, t.q), Unit: "us", N: len(s), Unsupported: !supported(len(s), t.q)}
	}
	return out
}

// liveHeapMB is /gc/heap/live:bytes after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle's mark sees what the first one's sweep freed
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// stats sums the tenants' serving counters.
func (r *run) stats() serve.Stats {
	var sum serve.Stats
	for _, svc := range r.sut.services() {
		st := svc.Stats()
		sum.EventsAccepted += st.EventsAccepted
		sum.EventsRejected += st.EventsRejected
		sum.OpsScored += st.OpsScored
		sum.OpsRejected += st.OpsRejected
		sum.MidSessionFlags += st.MidSessionFlags
		sum.SessionsOpen += st.SessionsOpen
		sum.AlertsRaised += st.AlertsRaised
		sum.UnknownKeys += st.UnknownKeys
		sum.DuplicateEvents += st.DuplicateEvents
		sum.ScoreCacheHits += st.ScoreCacheHits
		sum.ScoreCacheMisses += st.ScoreCacheMisses
		sum.ScoreCacheEvictions += st.ScoreCacheEvictions
	}
	return sum
}

// tenantAlert is one alert of the measured run, tied to its caller.
type tenantAlert struct {
	caller int
	serve.Alert
}

// collectAlerts snapshots every tenant's alerts (after the steady drain,
// so they are exactly the steady phase's).
func (r *run) collectAlerts() []tenantAlert {
	var out []tenantAlert
	for c, svc := range r.sut.services() {
		for _, a := range svc.Alerts("") {
			out = append(out, tenantAlert{caller: c, Alert: a})
		}
	}
	return out
}

// alertDelays is the early-warning latency: from when a flagged event
// was due to when its alert showed it. An alert yields up to two samples,
// the only two instants it records: CreatedAt for its first flagged
// position and UpdatedAt for its latest (flags of one session are applied
// in order, so the last update belongs to the highest position).
//
// Only events scored on a full context window count. The first window-1
// events of a session are scored on a shorter context, which costs a
// fraction of a full forward pass (60 µs against 430 µs on inproc-cold),
// and a third of all samples are such events: the pooled distribution has
// two humps with its median in the gap between them, where a change of a
// few samples in the mix — decided by the seed, not by the system — moves
// it by 100 µs. A session in production is long; the full-window verdict
// is the one that repeats.
func (r *run) alertDelays(alerts []tenantAlert) *recorder {
	fullFrom := r.sp.model.window - 1
	rec := newRecorder(2 * len(alerts))
	for _, a := range alerts {
		in := r.in[a.caller]
		si, ok := in.byClient[a.Client]
		if !ok || len(a.Positions) == 0 {
			continue // counted by the correctness check as a mismatch
		}
		sess := &in.sessions[si]
		sample := func(pos int, shown time.Time) {
			if pos >= fullFrom && pos < len(sess.events) {
				if due := in.due[sess.events[pos]]; due != 0 {
					rec.add(shown.Sub(r.base) - time.Duration(due))
				}
			}
		}
		sample(a.Positions[0], a.CreatedAt)
		if n := len(a.Positions); n > 1 {
			sample(a.Positions[n-1], a.UpdatedAt)
		}
	}
	return rec
}

// copyTree copies a directory of regular files (a WAL data dir).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src by construction
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
