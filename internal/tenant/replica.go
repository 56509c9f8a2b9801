package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/ucad/ucad/internal/serve"
)

// Warm-standby lifecycle. A standby process boots an ordinary Registry
// over its own data root and creates each tenant with CreateReplica as
// the replication follower syncs its files in: the tenant's model loads
// from the shipped checkpoint manifest, its pipeline is a durable
// serve.Service over the synced wal/ that has not gone live — it refuses
// traffic (serve.ErrNotReady) while the follower's replayer keeps its
// sessions tracking the primary. Promote takes every such tenant live
// at once — the standby becomes the primary, same directories, same
// tenant ids, session-id floors intact.

// CreateReplica boots a warm-standby tenant over its synced directory
// (<Root>/tenants/<id>, populated by a replication follower). The
// shipped tenant.json provides the spec, the shipped checkpoint
// manifest the model; the shipped WAL manifest fixes the shard count so
// promotion can open the same streams. The tenant is registered for
// routing (stats, alerts) but Ingest answers ErrNotReady until Promote.
//
// Returning an error is non-fatal for the follower: it retries on the
// next sync round (e.g. the first checkpoint has not shipped yet).
func (r *Registry) CreateReplica(id string) (*Tenant, error) {
	return r.create(Spec{ID: id}, nil, true)
}

// readSpec loads a tenant's persisted identity record.
func readSpec(dir string) (Spec, error) {
	var sp Spec
	b, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("corrupt %s: %w", specFile, err)
	}
	return sp, nil
}

// Replica reports whether the tenant is an unpromoted warm standby.
func (t *Tenant) Replica() bool { return t.svc.IsReplica() }

// Promote takes every replica tenant in the registry live: each opens
// its own WAL streams on its synced directory, seals the replication
// era with a fresh snapshot, starts accepting traffic and starts its
// idle sweeper — or, on any failure, stays a promotable replica (the
// error names the first such tenant; the rest are still attempted).
// Returns the promoted tenant ids; with no replica tenants it returns
// serve.ErrNotReplica (the admin API's 409).
//
// The caller quiesces replication first — stop the follower, pull one
// final sync — outside this call, since a follower mid-sync may itself
// be creating tenants, which needs the admin lock held here.
func (r *Registry) Promote() ([]string, error) {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	r.mu.RLock()
	closed := r.closed
	var replicas []*Tenant
	for _, t := range r.tenants {
		if t.svc.IsReplica() {
			replicas = append(replicas, t)
		}
	}
	r.mu.RUnlock()
	if closed {
		return nil, ErrRegistryClosed
	}
	if len(replicas) == 0 {
		return nil, serve.ErrNotReplica
	}
	var promoted []string
	var firstErr error
	for _, t := range replicas {
		if err := t.svc.PromoteToServing(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("tenant %s: %w", t.id, err)
			}
			continue
		}
		t.svc.Start()
		promoted = append(promoted, t.id)
	}
	sort.Strings(promoted)
	return promoted, firstErr
}
