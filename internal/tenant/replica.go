package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/wal"
)

// Warm-standby lifecycle. A standby process boots an ordinary Registry
// over its own data root and creates each tenant with CreateReplica as
// the replication follower syncs its files in: the tenant's model loads
// from the shipped checkpoint manifest, its pipeline runs live but
// refuses traffic (serve.ErrNotReady), and the follower's replayer
// keeps its sessions tracking the primary. Promote flips every replica
// tenant to serving at once — the standby becomes the primary, same
// directories, same tenant ids, session-id floors intact.

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
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if r.opts.Root == "" {
		return nil, errors.New("tenant: replica registry needs a data root")
	}
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	r.mu.RLock()
	_, exists := r.tenants[id]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrRegistryClosed
	}
	if exists {
		return nil, fmt.Errorf("%w: %s", ErrTenantExists, id)
	}

	dir := filepath.Join(r.opts.Root, "tenants", id)
	spec, err := readSpec(dir)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", id, err)
	}
	if spec.ID != id {
		return nil, fmt.Errorf("tenant %s: shipped %s names %q", id, specFile, spec.ID)
	}
	t := &Tenant{id: id, dir: dir}
	fail := func(err error) (*Tenant, error) {
		r.hub.RemoveTenant(id)
		return nil, err
	}
	ckpts, err := wal.OpenCheckpoints(filepath.Join(dir, "checkpoints"), 0)
	if err != nil {
		return fail(err)
	}
	t.ckpts = ckpts
	u, from, err := loadModel(ckpts, spec.ModelPath)
	if err != nil {
		return fail(fmt.Errorf("tenant %s: no shipped model yet: %w", id, err))
	}
	t.modelFrom = from
	if r.opts.Tune != nil {
		r.opts.Tune(u)
	}

	cfg := r.opts.Serve
	cfg.Metrics = r.hub.Tenant(id)
	cfg.RetrainGate = r.gate
	cfg.Durability = nil // promotion wires the standby's own WAL
	cfg.Replica = true
	// The shipped stream layout dictates the shard count: the replayer
	// routes by the same hash, and PromoteToServing re-opens exactly
	// these streams.
	if man, ok, merr := wal.LoadManifest(filepath.Join(dir, "wal")); merr != nil {
		return fail(fmt.Errorf("tenant %s: %w", id, merr))
	} else if ok {
		cfg.Shards = man.Shards
	}
	t.svc = serve.NewService(u, cfg)

	r.mu.Lock()
	r.tenants[id] = t
	r.mu.Unlock()
	return t, nil
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

// Promote flips every replica tenant in the registry to serving: each
// opens its own WAL streams on its synced directory (built from the
// registry's durability template), seals the replication era with a
// fresh snapshot, and starts accepting traffic. Returns the promoted
// tenant ids; with no replica tenants it returns serve.ErrNotReplica
// (the admin API's 409).
//
// Options.PrePromote — typically "stop the follower, drain the last
// shipped files" — runs first, outside the admin lock, so a follower
// mid-sync (which may itself be creating tenants) can finish cleanly.
func (r *Registry) Promote() ([]string, error) {
	if r.opts.PrePromote != nil {
		r.opts.PrePromote()
	}
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
		d := r.opts.Durability
		d.Dir = filepath.Join(t.dir, "wal")
		d.Checkpoints = t.ckpts
		if err := t.svc.PromoteToServing(&d); err != nil {
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
