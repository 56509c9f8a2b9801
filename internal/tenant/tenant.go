// Package tenant multiplexes many independent detection scenarios —
// the paper trains one detector per workload (Scenario-I commenting,
// Scenario-II location, syslog transfer) — into one serving process.
// Each tenant owns a full vertical slice: a trained model + vocabulary,
// an assembler/scoring pipeline (serve.Service), a WAL/snapshot
// directory, a fine-tune schedule, and its own checkpoint manifest.
// Tenants are the unit of horizontal scale (ROADMAP): nothing is shared
// between them but the process, the HTTP listener, and the metrics
// registry (where every family is partitioned by a tenant label).
//
// Locking model (see DESIGN.md): the registry is a read-mostly map
// under an RWMutex — the event hot path takes only the read lock for
// the id → *Tenant lookup, then runs entirely on the tenant's own
// pipeline. Creation and deletion serialize on a separate admin mutex
// and do their slow work (model load, WAL replay, directory removal)
// outside the map lock, so booting or deleting one tenant never stalls
// ingest into its siblings.
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ucad/ucad/internal/core"
	"github.com/ucad/ucad/internal/serve"
	"github.com/ucad/ucad/internal/wal"
)

// Errors surfaced to API callers. ErrUnknownTenant maps to the
// structured HTTP 404 with code "unknown_tenant" — a routing mistake
// must be distinguishable from a bad payload.
var (
	ErrUnknownTenant  = errors.New("tenant: unknown tenant")
	ErrTenantExists   = errors.New("tenant: tenant already exists")
	ErrDraining       = errors.New("tenant: tenant is draining")
	ErrRegistryClosed = errors.New("tenant: registry closed")
	ErrInvalidID      = errors.New("tenant: invalid tenant id")
	ErrInvalidModel   = errors.New("tenant: model failed validation")
)

// Spec describes one tenant: its identity and where its trained model
// comes from. It is persisted as <dir>/tenant.json so admin-created
// tenants come back after a restart.
type Spec struct {
	// ID names the tenant; it becomes a path component and a metrics
	// label, so it is restricted to [a-zA-Z0-9][a-zA-Z0-9_-]{0,63}.
	// Empty means serve.DefaultTenant.
	ID string `json:"id"`
	// ModelPath is the trained model file (ucad train). Boot prefers the
	// newest loadable checkpoint from the tenant's manifest and falls
	// back to this path.
	ModelPath string `json:"model,omitempty"`
}

// Options configures a Registry.
type Options struct {
	// Root is the durability root; per-tenant state lives under
	// <Root>/tenants/<id>/. Empty disables durability for every tenant.
	Root string
	// Serve is the per-tenant serving template: every tenant's Service
	// is built from a copy of it. Metrics and Durability are managed per
	// tenant and ignored here; Clock applies to all tenants.
	Serve serve.Config
	// Durability is the durability template (fsync policy, intervals,
	// segment cap). Dir and Checkpoints are derived per tenant and
	// ignored here. Only consulted when Root is set.
	Durability serve.DurabilityConfig
	// Tune, when set, is applied to every model a tenant serves before it
	// serves it — booted, admin-created, hot-swapped, and each shipped
	// checkpoint a standby's replayer installs — the hook for host-local
	// settings a persisted model cannot know (fine-tune parallelism,
	// scoring precision, score cache).
	Tune func(*core.UCAD)
}

// Registry is the concurrent tenant table: id → running pipeline.
type Registry struct {
	opts Options
	hub  *serve.MetricsHub
	// gate admits one background fine-tune round at a time across every
	// tenant (they share one TrainWorkers budget), least-served-first so a
	// retrain-heavy tenant cannot starve its siblings.
	gate *FairGate

	// adminMu serializes create/delete/close (the slow, IO-heavy
	// lifecycle transitions); mu guards only the map itself so the
	// ingest hot path is a read-lock lookup.
	adminMu sync.Mutex
	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
}

// Tenant is one running scenario pipeline.
type Tenant struct {
	id        string
	dir       string // "" when the tenant is not durable
	modelFrom string // what loaded: checkpoint path, model path, or "(in-memory)"
	svc       *serve.Service
	ckpts     *wal.Checkpoints
	restore   serve.RestoreStats
	draining  atomic.Bool
	tune      func(*core.UCAD) // Options.Tune; see tuned
}

// New returns an empty registry. Create or Boot tenants into it; Close
// shuts every tenant down.
func New(opts Options) *Registry {
	return &Registry{opts: opts, hub: serve.NewMetricsHub(), gate: NewFairGate(), tenants: make(map[string]*Tenant)}
}

// Hub exposes the shared metrics hub (mount Hub().Registry.Handler() at
// GET /metrics; Registry.Handler already does).
func (r *Registry) Hub() *serve.MetricsHub { return r.hub }

// ValidateID enforces the tenant-id charset: ids become directory names
// and metric label values, so they must be path-safe and bounded.
func ValidateID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("%w: %q (must be 1-64 chars)", ErrInvalidID, id)
	}
	for i, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("%w: %q (allowed: [a-zA-Z0-9][a-zA-Z0-9_-]*)", ErrInvalidID, id)
		}
	}
	return nil
}

// Create boots a tenant from its spec: open its checkpoint manifest,
// load the newest loadable checkpoint (falling back to the spec's model
// file), build its serving pipeline, restore its open sessions from its
// own WAL, and publish it for routing. The spec is persisted to
// <dir>/tenant.json so a restart's Boot re-creates it.
func (r *Registry) Create(spec Spec) (*Tenant, error) {
	return r.create(spec, nil, false)
}

// CreateFromModel is Create with an already-loaded model — the test and
// embedding path, skipping checkpoint/model-file resolution (checkpoint
// writes still go through the tenant's manifest when durable).
func (r *Registry) CreateFromModel(spec Spec, u *core.UCAD) (*Tenant, error) {
	if u == nil {
		return nil, errors.New("tenant: CreateFromModel needs a model")
	}
	return r.create(spec, u, false)
}

// create is the one tenant constructor. A standby tenant (see
// CreateReplica) is the same boot stopped one step early: its synced
// directory supplies the spec and the shard count, and Restore, the
// spec write and the idle sweeper wait for Promote.
func (r *Registry) create(spec Spec, u *core.UCAD, standby bool) (*Tenant, error) {
	if spec.ID == "" {
		spec.ID = serve.DefaultTenant
	}
	if err := ValidateID(spec.ID); err != nil {
		return nil, err
	}
	id := spec.ID
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

	t := &Tenant{id: id, tune: r.opts.Tune}
	fail := func(err error) (*Tenant, error) {
		// Release whatever the partial boot claimed so the id is fully
		// reusable (metric children included).
		r.hub.RemoveTenant(id)
		return nil, err
	}
	if standby && r.opts.Root == "" {
		return fail(errors.New("tenant: replica registry needs a data root"))
	}
	if r.opts.Root != "" {
		t.dir = filepath.Join(r.opts.Root, "tenants", id)
		if standby {
			shipped, err := readSpec(t.dir)
			if err != nil {
				return fail(fmt.Errorf("tenant %s: %w", id, err))
			}
			if shipped.ID != id {
				return fail(fmt.Errorf("tenant %s: shipped %s names %q", id, specFile, shipped.ID))
			}
			spec = shipped
		} else if err := os.MkdirAll(t.dir, 0o755); err != nil {
			return fail(err)
		}
		ckpts, err := wal.OpenCheckpoints(filepath.Join(t.dir, "checkpoints"))
		if err != nil {
			return fail(err)
		}
		t.ckpts = ckpts
	}
	if u == nil {
		var err error
		u, t.modelFrom, err = loadModel(t.ckpts, spec.ModelPath)
		if err != nil {
			return fail(fmt.Errorf("tenant %s: %w", id, err))
		}
	} else {
		t.modelFrom = "(in-memory)"
	}

	cfg := r.opts.Serve
	cfg.Metrics = r.hub.Tenant(id)
	cfg.RetrainGate = r.gate
	cfg.Durability = nil
	if t.dir != "" {
		d := r.opts.Durability
		d.Dir = filepath.Join(t.dir, "wal")
		d.Checkpoints = t.ckpts
		cfg.Durability = &d
		if standby {
			// The shipped stream layout dictates the shard count: the
			// replayer routes by the same hash, and promotion opens
			// exactly these streams.
			if man, ok, err := wal.LoadManifest(d.Dir); err != nil {
				return fail(fmt.Errorf("tenant %s: %w", id, err))
			} else if ok {
				cfg.Shards = man.Shards
			}
		}
	}
	t.svc = serve.NewService(t.tuned(u), cfg)
	if t.dir != "" && !standby {
		st, err := t.svc.Restore()
		if err != nil {
			t.svc.Close(context.Background())
			return fail(fmt.Errorf("tenant %s: restore: %w", id, err))
		}
		t.restore = st
		if err := writeSpec(t.dir, spec); err != nil {
			t.svc.Close(context.Background())
			return fail(fmt.Errorf("tenant %s: %w", id, err))
		}
		// Seed the checkpoint manifest so the tenant's directory is
		// self-contained from birth: a replication follower syncing it
		// gets a loadable model without access to the spec's model file
		// (which lives on this machine, maybe outside the data root).
		if t.ckpts.Count() == 0 {
			t.svc.CheckpointModel()
		}
	}
	if !standby {
		t.svc.Start()
	}

	r.mu.Lock()
	r.tenants[id] = t
	r.mu.Unlock()
	return t, nil
}

// loadModel prefers the newest loadable checkpoint, rolling the
// manifest back past any that a crash or bug left unloadable, and falls
// back to the trained model file.
func loadModel(ckpts *wal.Checkpoints, modelPath string) (*core.UCAD, string, error) {
	if ckpts != nil {
		for path := ckpts.Current(); path != ""; {
			u, err := loadModelFile(path)
			if err == nil {
				return u, path, nil
			}
			next, rerr := ckpts.Rollback()
			if rerr != nil {
				return nil, "", rerr
			}
			path = next
		}
	}
	if modelPath == "" {
		return nil, "", errors.New("no loadable checkpoint and no model path")
	}
	u, err := loadModelFile(modelPath)
	if err != nil {
		return nil, "", err
	}
	return u, modelPath, nil
}

func loadModelFile(path string) (*core.UCAD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// specFile is the persisted per-tenant identity record.
const specFile = "tenant.json"

func writeSpec(dir string, spec Spec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteAtomic(filepath.Join(dir, specFile), func(w io.Writer) error {
		_, werr := w.Write(append(b, '\n'))
		return werr
	})
}

// Boot creates every spec, then scans <Root>/tenants for persisted
// tenant.json records the specs did not name — tenants created through
// the admin API before the restart — and re-creates those too, each
// restoring its own sessions from its own WAL.
//
// <Root>/tenants/<id>/ is the only layout. A root still holding the
// pre-tenant flat one (wal/ and checkpoints/ directly under it) is
// refused before anything is created: booting past it would serve a
// fresh default tenant next to the stranded sessions.
func (r *Registry) Boot(specs []Spec) error {
	root := r.opts.Root
	if root != "" {
		for _, sub := range []string{"wal", "checkpoints"} {
			if _, err := os.Stat(filepath.Join(root, sub)); err == nil {
				dst := filepath.Join(root, "tenants", serve.DefaultTenant)
				return fmt.Errorf("tenant: %[1]s is in the old flat single-tenant layout; move it once with: "+
					"mkdir -p %[2]s && mv %[1]s/wal %[1]s/checkpoints %[1]s/%[3]s %[2]s/",
					root, dst, specFile)
			}
		}
	}
	for _, sp := range specs {
		if _, err := r.Create(sp); err != nil {
			return err
		}
	}
	if root == "" {
		return nil
	}
	ents, err := os.ReadDir(filepath.Join(root, "tenants"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sp, err := readSpec(filepath.Join(root, "tenants", e.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // not a tenant dir (or a partially created one)
		}
		if err != nil {
			return fmt.Errorf("tenant %s: %w", e.Name(), err)
		}
		if sp.ID != e.Name() {
			return fmt.Errorf("tenant %s: %s names %q", e.Name(), specFile, sp.ID)
		}
		if _, err := r.Get(sp.ID); err == nil {
			continue // already booted from specs
		}
		if _, err := r.Create(sp); err != nil {
			return err
		}
	}
	return nil
}

// Get resolves a tenant id (empty means the default tenant). The hot
// path: one read-lock map lookup.
func (r *Registry) Get(id string) (*Tenant, error) {
	if id == "" {
		id = serve.DefaultTenant
	}
	r.mu.RLock()
	t, ok := r.tenants[id]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return nil, ErrRegistryClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, id)
	}
	return t, nil
}

// Ingest routes one event by its Tenant field (empty → default tenant)
// and absorbs it into that tenant's pipeline.
func (r *Registry) Ingest(ev serve.Event) error {
	t, err := r.Get(ev.Tenant)
	if err != nil {
		return err
	}
	return t.Ingest(ev)
}

// IngestBatch absorbs one submission: the events are grouped by their
// Tenant field (empty → default tenant) and each group goes through its
// tenant's pipeline as one batch, in submission order, so every tenant
// commits its WAL streams once for the whole request. It returns one
// outcome per event, in submission order; a routing failure rejects
// only its own tenant's events.
func (r *Registry) IngestBatch(evs []serve.Event) []error {
	errs := make([]error, len(evs))
	groups := make(map[string][]int) // tenant id → submission indices
	var order []string
	for i := range evs {
		id := evs[i].Tenant
		if _, seen := groups[id]; !seen {
			order = append(order, id)
		}
		groups[id] = append(groups[id], i)
	}
	for _, id := range order {
		idx := groups[id]
		t, err := r.Get(id)
		if err != nil {
			for _, i := range idx {
				errs[i] = err
			}
			continue
		}
		sub, subErrs := make([]serve.Event, len(idx)), make([]error, len(idx))
		for k, i := range idx {
			sub[k] = evs[i]
		}
		t.IngestBatch(sub, subErrs)
		for k, i := range idx {
			errs[i] = subErrs[k]
		}
	}
	return errs
}

// List returns the live tenants sorted by id.
func (r *Registry) List() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Drain stops accepting new events for the tenant (Ingest answers
// ErrDraining) and blocks until its queued scoring work finishes. The
// tenant stays queryable (alerts, stats) — the quiesce step before
// Delete or a model migration.
func (r *Registry) Drain(id string) (*Tenant, error) {
	t, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	t.draining.Store(true)
	t.svc.Drain()
	return t, nil
}

// Delete unroutes the tenant, stops its pipeline (flushing open
// sessions through close-out detection — the data directory is about to
// be destroyed, so there is nothing to preserve them for), drops its
// metric children, and removes its data directory. Sibling tenants are
// untouched.
func (r *Registry) Delete(id string) error {
	if id == "" {
		id = serve.DefaultTenant
	}
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	r.mu.Lock()
	t, ok := r.tenants[id]
	if ok {
		delete(r.tenants, id)
	}
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return ErrRegistryClosed
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTenant, id)
	}
	t.draining.Store(true)
	t.svc.Stop()
	r.hub.RemoveTenant(id)
	if t.dir != "" {
		return os.RemoveAll(t.dir)
	}
	return nil
}

// Close shuts every tenant down for a process exit: durable tenants
// snapshot their open sessions and seal their logs (they come back on
// the next Boot), non-durable ones flush through close-out detection.
// The registry refuses routing and lifecycle calls afterwards.
func (r *Registry) Close(ctx context.Context) error {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	ts := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	var first error
	for _, t := range ts {
		if err := t.svc.Close(ctx); err != nil && first == nil {
			first = fmt.Errorf("tenant %s: %w", t.id, err)
		}
	}
	return first
}

// ID returns the tenant's identity.
func (t *Tenant) ID() string { return t.id }

// Dir returns the tenant's data directory ("" when not durable).
func (t *Tenant) Dir() string { return t.dir }

// ModelSource reports what the tenant's model loaded from — a
// checkpoint path, the spec's model file, or "(in-memory)".
func (t *Tenant) ModelSource() string { return t.modelFrom }

// Service exposes the tenant's serving pipeline (tests, embedding).
func (t *Tenant) Service() *serve.Service { return t.svc }

// RestoreStats reports the tenant's last boot-time recovery.
func (t *Tenant) RestoreStats() serve.RestoreStats { return t.restore }

// Draining reports whether the tenant has been quiesced.
func (t *Tenant) Draining() bool { return t.draining.Load() }

// Stats snapshots the tenant's serving counters.
func (t *Tenant) Stats() serve.Stats { return t.svc.Stats() }

// tuned applies the registry's Tune hook to u and returns it. It is the
// one place a serving model is configured: create and SwapModel, the
// only two ways a model reaches the tenant's pipeline, both go through
// it.
func (t *Tenant) tuned(u *core.UCAD) *core.UCAD {
	if t.tune != nil {
		t.tune(u)
	}
	return u
}

// SwapModel hot-replaces the tenant's serving model with an
// already-validated one, tuned like every model the tenant serves:
// scoring switches atomically (in-flight batches finish on the old
// model), open sessions are re-tokenized against the new vocabulary,
// and the new model is checkpointed through the tenant's manifest so
// the replacement survives a restart. Ingest keeps flowing throughout —
// no drain, no dropped events. A standby's replayer installs each
// shipped checkpoint here too; its service has no checkpoint store until
// it goes live, so those swaps write nothing.
func (t *Tenant) SwapModel(u *core.UCAD) error {
	if t.draining.Load() {
		return ErrDraining
	}
	if err := t.svc.SwapModel(t.tuned(u)); err != nil {
		return err
	}
	t.svc.CheckpointModel()
	return nil
}

// Ingest absorbs one event into the tenant's pipeline unless it is
// draining. The event's Tenant field is not re-checked: routing already
// happened.
func (t *Tenant) Ingest(ev serve.Event) error {
	if t.draining.Load() {
		return ErrDraining
	}
	return t.svc.Ingest(ev)
}

// IngestBatch is Ingest for one request's events (see
// serve.Service.IngestBatch): errs[i] receives event i's outcome.
func (t *Tenant) IngestBatch(evs []serve.Event, errs []error) {
	if t.draining.Load() {
		for i := range errs {
			errs[i] = ErrDraining
		}
		return
	}
	t.svc.IngestBatch(evs, errs)
}
