package workload

import "math/rand"

// LogDataset is a sessionized system-log dataset for the transfer
// experiment (§6.6): statement keys are log-template ids.
//
// The real HDFS/BGL/Thunderbird corpora are multi-GB downloads; per
// DESIGN.md these simulators reproduce their *shape*: normal sessions
// follow per-source procedural grammars (block lifecycles, component
// event chains), anomalies violate them (missing / foreign / bursty
// events), and anomaly rates match the published corpora (~3%, ~7%,
// ~1.5% of sessions respectively).
type LogDataset struct {
	Name         string
	Vocab        int // number of template ids including the reserved 0
	Train        [][]int
	TestNormal   [][]int
	TestAbnormal [][]int
	// AnomalyKeys are the template ids that only abnormal sessions use.
	AnomalyKeys []int
}

// logGrammar drives the shared simulator.
type logGrammar struct {
	name string
	// procedures are the normal event-chain building blocks.
	procedures [][]int
	// shuffleWithin allows procedure-internal reordering (heterogeneous
	// interleaving as in HDFS replica events).
	shuffleWithin bool
	// interleaveProb riffles two procedures together: concurrent
	// components logging into the same session window.
	interleaveProb float64
	// benignNoise is a set of rare-but-normal event templates (GC
	// pauses, informational warnings) appearing with benignProb per
	// procedure in normal sessions.
	benignNoise []int
	benignProb  float64
	// minProcs/maxProcs bound procedures per session.
	minProcs, maxProcs int
	// anomalyKeys are template ids that only occur in abnormal sessions
	// (exceptions, error bursts).
	anomalyKeys []int
	vocab       int
}

func (g *logGrammar) chunk(rng *rand.Rand) []int {
	proc := g.procedures[rng.Intn(len(g.procedures))]
	chunk := append([]int(nil), proc...)
	if g.shuffleWithin && len(chunk) > 2 {
		// Swap one interior adjacent pair: replica events arrive in
		// nondeterministic order.
		j := 1 + rng.Intn(len(chunk)-2)
		chunk[j], chunk[j+1] = chunk[j+1], chunk[j]
	}
	return chunk
}

func (g *logGrammar) normalSession(rng *rand.Rand) []int {
	n := g.minProcs + rng.Intn(g.maxProcs-g.minProcs+1)
	var s []int
	for i := 0; i < n; i++ {
		chunk := g.chunk(rng)
		if rng.Float64() < g.interleaveProb {
			// Two components log concurrently into the same window.
			other := g.chunk(rng)
			merged := make([]int, 0, len(chunk)+len(other))
			for len(chunk) > 0 || len(other) > 0 {
				if len(other) == 0 || (len(chunk) > 0 && rng.Intn(len(chunk)+len(other)) < len(chunk)) {
					merged = append(merged, chunk[0])
					chunk = chunk[1:]
				} else {
					merged = append(merged, other[0])
					other = other[1:]
				}
			}
			chunk = merged
			i++ // consumed an extra procedure slot
		}
		if len(g.benignNoise) > 0 && rng.Float64() < g.benignProb {
			k := g.benignNoise[rng.Intn(len(g.benignNoise))]
			pos := rng.Intn(len(chunk) + 1)
			chunk = append(chunk[:pos], append([]int{k}, chunk[pos:]...)...)
		}
		s = append(s, chunk...)
	}
	return s
}

func (g *logGrammar) abnormalSession(rng *rand.Rand) []int {
	s := g.normalSession(rng)
	switch rng.Intn(3) {
	case 0: // error burst: anomaly-only templates appear
		k := g.anomalyKeys[rng.Intn(len(g.anomalyKeys))]
		pos := rng.Intn(len(s) + 1)
		burst := 1 + rng.Intn(3)
		for i := 0; i < burst; i++ {
			s = append(s[:pos], append([]int{k}, s[pos:]...)...)
		}
	case 1: // truncated procedure: drop the tail of the session
		cut := len(s) / 2
		if cut < 2 {
			cut = 2
		}
		s = s[:cut]
		s = append(s, g.anomalyKeys[rng.Intn(len(g.anomalyKeys))])
	default: // foreign-procedure interleaving plus an error event
		k := g.anomalyKeys[rng.Intn(len(g.anomalyKeys))]
		s = append(s, k)
		for i := 0; i < 2 && len(s) > 3; i++ {
			pos := rng.Intn(len(s) - 1)
			s[pos], s[pos+1] = s[pos+1], s[pos]
		}
	}
	return s
}

func (g *logGrammar) build(nTrain, nTestNormal, nTestAbnormal int, seed int64) *LogDataset {
	rng := rand.New(rand.NewSource(seed))
	d := &LogDataset{Name: g.name, Vocab: g.vocab, AnomalyKeys: g.anomalyKeys}
	for i := 0; i < nTrain; i++ {
		d.Train = append(d.Train, g.normalSession(rng))
	}
	for i := 0; i < nTestNormal; i++ {
		d.TestNormal = append(d.TestNormal, g.normalSession(rng))
	}
	for i := 0; i < nTestAbnormal; i++ {
		d.TestAbnormal = append(d.TestAbnormal, g.abnormalSession(rng))
	}
	return d
}

// hdfsGrammar is the HDFS block-lifecycle grammar behind HDFSLike.
func hdfsGrammar() *logGrammar {
	return &logGrammar{
		name: "HDFS",
		procedures: [][]int{
			{1, 2, 2, 2, 3, 3, 3}, // allocate, receiving x3, received x3
			{4, 4, 4},             // addStoredBlock x3
			{5, 6},                // read request, transmit
			{5, 6, 5, 6},          // repeated reads
			{7},                   // verification
			{8, 9},                // delete request, deleted
		},
		shuffleWithin:  true,
		interleaveProb: 0.15,
		benignNoise:    []int{13}, // informational fsck message
		benignProb:     0.05,
		minProcs:       2,
		maxProcs:       6,
		anomalyKeys:    []int{10, 11, 12}, // exception, timeout, redundant-replica
		vocab:          14,
	}
}

// HDFSLike simulates the HDFS block-lifecycle log: sessions are block
// ids; procedures are allocate/replicate/read/delete chains.
func HDFSLike(nTrain, nTestNormal, nTestAbnormal int, seed int64) *LogDataset {
	return hdfsGrammar().build(nTrain, nTestNormal, nTestAbnormal, seed)
}

// bglGrammar is the Blue Gene/L RAS grammar.
func bglGrammar() *logGrammar {
	return &logGrammar{
		name: "BGL",
		procedures: [][]int{
			{1, 2, 3},       // boot: power, kernel up, net up
			{4, 5, 4, 5},    // job start/heartbeat cycles
			{5, 5, 5},       // heartbeats
			{6, 7},          // checkpoint, flush
			{8},             // job end
			{3, 4, 5, 6, 7}, // long job procedure
		},
		shuffleWithin:  false,         // per-component chains are strongly ordered...
		interleaveProb: 0.45,          // ...but components log concurrently per window
		benignNoise:    []int{13, 14}, // cache-parity info, clock sync
		benignProb:     0.10,
		minProcs:       3,
		maxProcs:       8,
		anomalyKeys:    []int{9, 10, 11, 12}, // ECC error, link failure, panic, fan fault
		vocab:          15,
	}
}

// BGLLike simulates the Blue Gene/L RAS log: per-component event chains
// with kernel/network/app procedures.
func BGLLike(nTrain, nTestNormal, nTestAbnormal int, seed int64) *LogDataset {
	return bglGrammar().build(nTrain, nTestNormal, nTestAbnormal, seed)
}

// thunderbirdGrammar is the Thunderbird supercomputer syslog grammar.
func thunderbirdGrammar() *logGrammar {
	return &logGrammar{
		name: "Thunderbird",
		procedures: [][]int{
			{1, 2, 2, 3},       // session open, auth x2, env
			{4, 5, 6},          // daemon cycle
			{4, 5, 6, 4, 5, 6}, // repeated daemon cycles
			{7, 8},             // cron start/end
			{9, 3},             // config reload
			{1, 2, 3, 7, 8, 9}, // admin procedure
		},
		shuffleWithin:  false,
		interleaveProb: 0.35,      // daemons log concurrently
		benignNoise:    []int{14}, // ntp drift info
		benignProb:     0.08,
		minProcs:       4,
		maxProcs:       10,
		anomalyKeys:    []int{10, 11, 12, 13}, // oom, disk error, auth failure burst, watchdog
		vocab:          15,
	}
}

// ThunderbirdLike simulates the Thunderbird supercomputer syslog:
// longer admin/daemon procedures with a small anomaly rate.
func ThunderbirdLike(nTrain, nTestNormal, nTestAbnormal int, seed int64) *LogDataset {
	return thunderbirdGrammar().build(nTrain, nTestNormal, nTestAbnormal, seed)
}
