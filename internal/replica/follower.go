package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ucad/ucad/internal/wal"
)

// FollowerConfig wires a standby's pull loop.
type FollowerConfig struct {
	// PrimaryURL is the primary's base URL (the shipper mounts under
	// {PrimaryURL}/v1/replica/).
	PrimaryURL string
	// Root is the standby's data directory; tenants sync into
	// <Root>/tenants/<id>/ — the exact layout a promoted standby then
	// serves from.
	Root string
	// Interval is the poll cadence (default 2s).
	Interval time.Duration
	// OpenTarget builds the warm standby for a tenant the first time
	// its files land, from its synced directory (the shipped checkpoint
	// provides the model, the WAL manifest the shard count). Returning
	// an error defers the tenant to the next round.
	OpenTarget func(id, dir string) (Target, error)
	// AutoPromoteAfter invokes OnPrimaryDown once the primary has been
	// continuously unreachable for this long (0 disables the probe).
	AutoPromoteAfter time.Duration
	// OnPrimaryDown fires at most once, after the sync round that
	// crossed AutoPromoteAfter and never after Stop. Run has left its
	// loop by then, so the callback may call Stop (promotion does).
	OnPrimaryDown func()
	// Client is the HTTP client (default http.DefaultClient with a 30s
	// timeout clone).
	Client *http.Client
	// Metrics defaults to a private NewMetrics(nil).
	Metrics *Metrics
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// TenantStatus is one tenant's replication position.
type TenantStatus struct {
	ID             string `json:"id"`
	AppliedRecords int64  `json:"applied_records"`
	Rebuilds       int64  `json:"rebuilds"`
}

// Status is the follower's observable state (the standby's
// /v1/replication admin payload).
type Status struct {
	PrimaryURL     string         `json:"primary_url"`
	PrimaryHealthy bool           `json:"primary_healthy"`
	LastSync       time.Time      `json:"last_sync"`
	LagSeconds     float64        `json:"lag_seconds"`
	Rounds         int64          `json:"rounds"`
	Errors         int64          `json:"errors"`
	Tenants        []TenantStatus `json:"tenants,omitempty"`
}

// Follower pulls a primary's replicable files into Root and replays
// them into per-tenant Targets. Run drives the loop; SyncOnce is one
// round (exported so promotion can drain the last shipped files and
// tests can step deterministically).
type Follower struct {
	cfg FollowerConfig

	mu        sync.Mutex
	tenants   map[string]*tenantSync
	lastSync  time.Time
	downSince time.Time
	healthy   bool
	rounds    int64
	errs      int64
	autoFired bool
	running   bool

	stop chan struct{}
	done chan struct{}
}

type tenantSync struct {
	replayer *Replayer
	rebuilds int64
}

// NewFollower validates the config and returns a stopped follower.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.PrimaryURL == "" {
		return nil, errors.New("replica: follower needs a primary URL")
	}
	if _, err := url.Parse(cfg.PrimaryURL); err != nil {
		return nil, fmt.Errorf("replica: bad primary URL: %w", err)
	}
	if cfg.Root == "" {
		return nil, errors.New("replica: follower needs a data root")
	}
	if cfg.OpenTarget == nil {
		return nil, errors.New("replica: follower needs an OpenTarget")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	cfg.Metrics.clock = cfg.Clock
	return &Follower{
		cfg:     cfg,
		tenants: make(map[string]*tenantSync),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Run polls until Stop, ctx cancellation, or the round that declares the
// primary down. Sync errors are absorbed (counted, surfaced via Status)
// — a dead primary is the expected condition this subsystem exists for.
func (f *Follower) Run(ctx context.Context) {
	f.mu.Lock()
	f.running = true
	f.mu.Unlock()
	down := f.poll(ctx)
	// The loop is over before the callback runs: OnPrimaryDown promotes,
	// promotion's first step is Stop, and Stop waits for done.
	close(f.done)
	if down {
		f.cfg.OnPrimaryDown()
	}
}

// poll runs sync rounds every Interval; it returns true when a round
// declared the primary down, false on Stop or cancellation.
func (f *Follower) poll(ctx context.Context) bool {
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		if down, _ := f.syncRound(ctx); down {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-f.stop:
			return false
		case <-t.C:
		}
	}
}

// Stop halts Run and waits for it to exit (a no-op wait when Run was
// never started — SyncOnce-driven tests and promotion drains). A stopped
// follower no longer decides the primary is down: the caller that
// stopped it (promotion, shutdown) already has, and its own final
// SyncOnce must not re-enter it through OnPrimaryDown.
func (f *Follower) Stop() {
	f.mu.Lock()
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.autoFired = true
	started := f.running
	f.mu.Unlock()
	if started {
		<-f.done
	}
}

// Status reports the follower's position.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		PrimaryURL:     f.cfg.PrimaryURL,
		PrimaryHealthy: f.healthy,
		LastSync:       f.lastSync,
		Rounds:         f.rounds,
		Errors:         f.errs,
	}
	if !f.lastSync.IsZero() {
		st.LagSeconds = f.cfg.Clock().Sub(f.lastSync).Seconds()
	}
	for id, ts := range f.tenants {
		st.Tenants = append(st.Tenants, TenantStatus{ID: id, AppliedRecords: ts.replayer.AppliedRecords(), Rebuilds: ts.rebuilds})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].ID < st.Tenants[j].ID })
	return st
}

// SyncOnce runs one full round: list tenants, sync each tenant's files,
// replay. Returns the first error (the round may have partially
// progressed — every step is idempotent). It invokes OnPrimaryDown when
// this round is the one that crossed AutoPromoteAfter.
func (f *Follower) SyncOnce(ctx context.Context) error {
	down, err := f.syncRound(ctx)
	if down {
		f.cfg.OnPrimaryDown()
	}
	return err
}

// syncRound is one round plus the health bookkeeping; down reports that
// the primary has now been unreachable for AutoPromoteAfter (true at
// most once per follower).
func (f *Follower) syncRound(ctx context.Context) (down bool, err error) {
	err = f.syncOnce(ctx)
	now := f.cfg.Clock()
	f.mu.Lock()
	f.rounds++
	if err != nil {
		f.errs++
		if f.healthy || f.downSince.IsZero() {
			f.downSince = now
		}
		f.healthy = false
		down = f.cfg.AutoPromoteAfter > 0 && !f.autoFired &&
			now.Sub(f.downSince) >= f.cfg.AutoPromoteAfter && f.cfg.OnPrimaryDown != nil
		if down {
			f.autoFired = true
		}
		f.mu.Unlock()
		f.cfg.Metrics.syncErrors.Inc()
		return down, err
	}
	f.healthy = true
	f.downSince = time.Time{}
	f.lastSync = now
	f.mu.Unlock()
	f.cfg.Metrics.syncRounds.Inc()
	f.cfg.Metrics.markSynced(now)
	return false, nil
}

func (f *Follower) syncOnce(ctx context.Context) error {
	var tl tenantsReply
	if err := f.getJSON(ctx, "/v1/replica/tenants", &tl); err != nil {
		return err
	}
	var firstErr error
	for _, id := range tl.Tenants {
		if !validTenantID(id) {
			continue
		}
		if err := f.syncTenant(ctx, id); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tenant %s: %w", id, err)
		}
	}
	return firstErr
}

// syncTenant mirrors one tenant's files and replays what changed.
func (f *Follower) syncTenant(ctx context.Context, id string) error {
	dir := filepath.Join(f.cfg.Root, "tenants", id)
	for _, sub := range []string{walSubdir, ckptSubdir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	var fl filesReply
	if err := f.getJSON(ctx, "/v1/replica/files?tenant="+url.QueryEscape(id), &fl); err != nil {
		return err
	}
	listed := make(map[string]bool, len(fl.Files))
	for _, info := range fl.Files {
		if !validRelPath(info.Path) {
			return fmt.Errorf("replica: primary listed invalid path %q", info.Path)
		}
		listed[info.Path] = true
		local := filepath.Join(dir, filepath.FromSlash(info.Path))
		if !info.Mutable {
			if fi, err := os.Stat(local); err == nil && fi.Size() == info.Size {
				continue // immutable and already here: done forever
			}
		}
		if err := f.fetch(ctx, id, info, local); err != nil {
			return err
		}
	}
	f.deleteUnlisted(dir, listed)

	f.mu.Lock()
	ts := f.tenants[id]
	f.mu.Unlock()
	if ts == nil {
		target, err := f.cfg.OpenTarget(id, dir)
		if err != nil {
			return err
		}
		ts = &tenantSync{replayer: NewReplayer(dir, target)}
		f.mu.Lock()
		f.tenants[id] = ts
		f.mu.Unlock()
	}
	ap, err := ts.replayer.Apply()
	if err != nil {
		return err
	}
	f.mu.Lock()
	if ap.Rebuilt {
		ts.rebuilds++
	}
	f.mu.Unlock()
	if ap.Records > 0 {
		f.cfg.Metrics.appliedRecords.With(id).Add(int64(ap.Records))
	}
	if ap.Rebuilt {
		f.cfg.Metrics.rebuilds.With(id).Inc()
	}
	return nil
}

// fetch downloads one shipped file into place: temp file, framing
// verification under its final name's rules, atomic rename.
func (f *Follower) fetch(ctx context.Context, id string, info FileInfo, local string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.cfg.PrimaryURL+"/v1/replica/file?tenant="+url.QueryEscape(id)+"&path="+url.QueryEscape(info.Path), nil)
	if err != nil {
		return err
	}
	res, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(res.Body, 4<<10))
		return fmt.Errorf("replica: fetch %s: %s", info.Path, res.Status)
	}
	tmp := local + ".fetch.tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	n, err := io.Copy(out, res.Body)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := verifyShipped(info.Path, tmp); err != nil {
		os.Remove(tmp)
		f.cfg.Metrics.verifyFailures.With(id).Inc()
		return fmt.Errorf("replica: shipped %s failed verification: %w", info.Path, err)
	}
	if err := os.Rename(tmp, local); err != nil {
		os.Remove(tmp)
		return err
	}
	f.cfg.Metrics.fetchedFiles.With(id).Inc()
	f.cfg.Metrics.fetchedBytes.With(id).Add(n)
	return nil
}

// verifyShipped checks a fetched temp file against the framing rules of
// the name it is about to assume. WAL segments must hold an intact
// record chain (a torn shipped segment is a transfer fault, not a crash
// artifact — reject it), snapshots and the remap file a framed state
// payload, the WAL manifest and the tenant spec valid JSON. Checkpoints
// have no framing of their own; the replayer's core.LoadFile is their
// gate.
func verifyShipped(rel, tmp string) error {
	switch {
	case rel == specFile, rel == walSubdir+"/"+wal.ManifestName:
		return verifyJSONFile(tmp)
	case strings.HasPrefix(rel, walSubdir+"/"):
		return wal.VerifyStreamFile(path.Base(rel), tmp)
	}
	return nil
}

func verifyJSONFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !json.Valid(b) {
		return errors.New("invalid JSON")
	}
	return nil
}

// deleteUnlisted removes local immutable stream files the primary no
// longer lists (it pruned them past a newer snapshot). Mutable names
// and unknown files are left alone; stray fetch temps are swept.
func (f *Follower) deleteUnlisted(dir string, listed map[string]bool) {
	for _, sub := range []string{walSubdir, ckptSubdir} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			continue
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() {
				continue
			}
			if strings.HasSuffix(name, ".fetch.tmp") {
				os.Remove(filepath.Join(dir, sub, name))
				continue
			}
			rel := sub + "/" + name
			if listed[rel] || !immutableName(sub, name) {
				continue
			}
			os.Remove(filepath.Join(dir, sub, name))
		}
	}
}

// immutableName reports whether a local file is one we mirror with
// delete-on-prune semantics: WAL segments and snapshots, and checkpoint
// payloads.
func immutableName(sub, name string) bool {
	switch sub {
	case walSubdir:
		if _, _, ok := wal.SplitSegmentName(name); ok {
			return true
		}
		_, _, ok := wal.SplitSnapshotName(name)
		return ok
	case ckptSubdir:
		return wal.IsCheckpointName(name)
	}
	return false
}

func (f *Follower) getJSON(ctx context.Context, p string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.PrimaryURL+p, nil)
	if err != nil {
		return err
	}
	res, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(res.Body, 4<<10))
		return fmt.Errorf("replica: GET %s: %s", p, res.Status)
	}
	return json.NewDecoder(res.Body).Decode(v)
}
