package replica

import (
	"sync/atomic"
	"time"

	"github.com/ucad/ucad/internal/obs"
)

// Metrics is the replication instrumentation surface. One instance
// serves both roles — a primary only moves the shipper families, a
// standby only the follower ones — so a process that is shipper on one
// port and follower of another primary (chained standbys) shares a
// registry without collisions.
type Metrics struct {
	Registry *obs.Registry

	// Shipper side.
	shippedBytes *obs.CounterVec // by tenant
	shippedFiles *obs.CounterVec
	listRequests *obs.Counter
	shipErrors   *obs.Counter

	// Follower side.
	fetchedBytes   *obs.CounterVec
	fetchedFiles   *obs.CounterVec
	verifyFailures *obs.CounterVec
	appliedRecords *obs.CounterVec
	rebuilds       *obs.CounterVec
	syncRounds     *obs.Counter
	syncErrors     *obs.Counter

	// lastSync is the unix-nano wall time of the last fully successful
	// sync round; the lag gauge derives from it so it keeps rising while
	// the primary is unreachable.
	lastSync atomic.Int64
	clock    func() time.Time
}

// NewMetrics registers the replication families on reg (a fresh
// registry when nil) and returns the handle the Shipper and Follower
// share.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{Registry: reg, clock: time.Now}
	m.shippedBytes = reg.CounterVec("ucad_replica_shipped_bytes_total",
		"Bytes of replicable files served to followers.", "tenant")
	m.shippedFiles = reg.CounterVec("ucad_replica_shipped_files_total",
		"Replicable files served to followers.", "tenant")
	m.listRequests = reg.Counter("ucad_replica_list_requests_total",
		"Tenant and file listing requests served to followers.")
	m.shipErrors = reg.Counter("ucad_replica_ship_errors_total",
		"Replication requests refused (bad path, unknown tenant, active segment).")
	m.fetchedBytes = reg.CounterVec("ucad_replica_fetched_bytes_total",
		"Bytes of shipped files fetched from the primary.", "tenant")
	m.fetchedFiles = reg.CounterVec("ucad_replica_fetched_files_total",
		"Shipped files fetched from the primary.", "tenant")
	m.verifyFailures = reg.CounterVec("ucad_replica_verify_failures_total",
		"Shipped files that failed CRC/framing verification and were discarded.", "tenant")
	m.appliedRecords = reg.CounterVec("ucad_replica_applied_records_total",
		"Shipped WAL records replayed into the warm standby.", "tenant")
	m.rebuilds = reg.CounterVec("ucad_replica_rebuilds_total",
		"Full standby rebuilds (replication gap or shard-layout change).", "tenant")
	m.syncRounds = reg.Counter("ucad_replica_sync_rounds_total",
		"Completed follower sync rounds.")
	m.syncErrors = reg.Counter("ucad_replica_sync_errors_total",
		"Follower sync rounds that ended in an error.")
	reg.GaugeFunc("ucad_replica_lag_seconds",
		"Seconds since the follower last completed a successful sync round.",
		func() float64 {
			ns := m.lastSync.Load()
			if ns == 0 {
				return 0
			}
			return m.clock().Sub(time.Unix(0, ns)).Seconds()
		})
	return m
}

// markSynced stamps a fully successful sync round.
func (m *Metrics) markSynced(now time.Time) { m.lastSync.Store(now.UnixNano()) }
