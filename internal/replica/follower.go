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
	// continuously unreachable for this long: no round's listing request
	// got an HTTP answer (0 disables the probe; see syncRound).
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
	tenants   map[string]*Replayer
	downSince time.Time
	healthy   bool
	autoFired bool
	running   bool

	stop chan struct{}
	done chan struct{}
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
		tenants: make(map[string]*Replayer),
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

// Status reports the follower's position. Everything but primary
// health is read from the replication metrics the follower feeds.
func (f *Follower) Status() Status {
	m := f.cfg.Metrics
	errs := m.syncErrors.Value()
	st := Status{
		PrimaryURL: f.cfg.PrimaryURL,
		Rounds:     m.syncRounds.Value() + errs,
		Errors:     errs,
	}
	st.LastSync, st.LagSeconds = m.synced()
	f.mu.Lock()
	st.PrimaryHealthy = f.healthy
	for id := range f.tenants {
		st.Tenants = append(st.Tenants, TenantStatus{ID: id, AppliedRecords: m.appliedRecords.With(id).Value(), Rebuilds: m.rebuilds.With(id).Value()})
	}
	f.mu.Unlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].ID < st.Tenants[j].ID })
	return st
}

// SyncOnce runs one full round: fetch the listing, sync each tenant's
// files, replay. Returns the first error (the round may have partially
// progressed — every step is idempotent). It invokes OnPrimaryDown when
// this round is the one that crossed AutoPromoteAfter.
func (f *Follower) SyncOnce(ctx context.Context) error {
	down, err := f.syncRound(ctx)
	if down {
		f.cfg.OnPrimaryDown()
	}
	return err
}

// syncRound is one round; down reports that the primary has now been
// unreachable for AutoPromoteAfter (true at most once per follower).
// The listing request alone decides primary health, and only a
// transport failure (no HTTP answer, or a body cut off) marks the
// primary down. A primary that answers an error status or a listing
// that does not decode (another build mid-upgrade, a proxy) is serving,
// and so is one whose tenant fails (a fetch, verification, opening its
// target, replay): each is counted and retried next round.
func (f *Follower) syncRound(ctx context.Context) (down bool, err error) {
	var l listing
	body, err := f.get(ctx, "/v1/replica/files")
	if err == nil {
		var b []byte
		if b, err = io.ReadAll(body); err == nil {
			if uerr := json.Unmarshal(b, &l); uerr != nil {
				err = fmt.Errorf("replica: listing: %v (%w)", uerr, errAnswered)
			}
		}
		body.Close()
	}
	now := f.cfg.Clock()
	f.mu.Lock()
	f.healthy = err == nil || errors.Is(err, errAnswered)
	switch {
	case f.healthy:
		f.downSince = time.Time{}
	case f.downSince.IsZero():
		f.downSince = now
	}
	down = !f.healthy && f.cfg.AutoPromoteAfter > 0 && !f.autoFired &&
		now.Sub(f.downSince) >= f.cfg.AutoPromoteAfter && f.cfg.OnPrimaryDown != nil
	f.autoFired = f.autoFired || down
	f.mu.Unlock()
	if err == nil {
		ids := make([]string, 0, len(l.Tenants))
		for id := range l.Tenants {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if terr := f.syncTenant(ctx, id, l.Tenants[id]); terr != nil && err == nil {
				err = fmt.Errorf("tenant %q: %w", id, terr)
			}
		}
	}
	if err != nil {
		f.cfg.Metrics.syncErrors.Inc()
		return down, err
	}
	f.cfg.Metrics.syncRounds.Inc()
	f.cfg.Metrics.markSynced(f.cfg.Clock())
	return false, nil
}

// localFiles resolves one listed tenant's files to where they land:
// its directory <root>/tenants/<id> and one local path per file. It
// refuses an id the tenant registry would refuse and a path outside the
// shipped grammar, so nothing a primary lists lands outside that
// directory.
func localFiles(root, id string, files []FileInfo) (dir string, local []string, err error) {
	if !validTenantID(id) {
		return "", nil, errors.New("replica: primary listed an invalid tenant id")
	}
	dir = filepath.Join(root, "tenants", id)
	local = make([]string, len(files))
	for i, info := range files {
		if !validRelPath(info.Path) {
			return "", nil, fmt.Errorf("replica: primary listed invalid path %q", info.Path)
		}
		local[i] = filepath.Join(dir, filepath.FromSlash(info.Path))
	}
	return dir, local, nil
}

// syncTenant mirrors one tenant's listed files and replays what changed.
func (f *Follower) syncTenant(ctx context.Context, id string, files []FileInfo) error {
	dir, local, err := localFiles(f.cfg.Root, id, files)
	if err != nil {
		return err
	}
	for _, sub := range []string{walSubdir, ckptSubdir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	listed := make(map[string]bool, len(files))
	for i, info := range files {
		listed[info.Path] = true
		if !info.Mutable {
			if fi, err := os.Stat(local[i]); err == nil && fi.Size() == info.Size {
				continue // immutable and already here: done forever
			}
		}
		if err := f.fetch(ctx, id, info, local[i]); err != nil {
			return err
		}
	}
	deleteUnlisted(dir, listed)

	f.mu.Lock()
	rp := f.tenants[id]
	f.mu.Unlock()
	if rp == nil {
		target, err := f.cfg.OpenTarget(id, dir)
		if err != nil {
			return err
		}
		rp = NewReplayer(dir, target)
		rp.applied = f.cfg.Metrics.appliedRecords.With(id)
		f.mu.Lock()
		f.tenants[id] = rp
		f.mu.Unlock()
	}
	ap, err := rp.Apply()
	if ap.Rebuilt {
		f.cfg.Metrics.rebuilds.With(id).Inc()
	}
	return err
}

// fetch downloads one shipped file into place: temp file, framing
// verification under its final name's rules, atomic rename.
func (f *Follower) fetch(ctx context.Context, id string, info FileInfo, local string) error {
	body, err := f.get(ctx, "/v1/replica/file?tenant="+url.QueryEscape(id)+"&path="+url.QueryEscape(info.Path))
	if err != nil {
		return err
	}
	defer body.Close()
	tmp := local + ".fetch.tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	n, err := io.Copy(out, body)
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
	if err == nil && !json.Valid(b) {
		err = errors.New("invalid JSON")
	}
	return err
}

// deleteUnlisted makes the local wal/ and checkpoints/ hold only what
// the primary lists: it removes files the primary pruned past a newer
// snapshot, a remap staging file whose migration ended, and fetch temps
// an interrupted round left behind.
func deleteUnlisted(dir string, listed map[string]bool) {
	for _, sub := range []string{walSubdir, ckptSubdir} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if !e.IsDir() && !listed[sub+"/"+e.Name()] {
				os.Remove(filepath.Join(dir, sub, e.Name()))
			}
		}
	}
}

// errAnswered marks a failed request the primary did answer: it is up.
var errAnswered = errors.New("primary answered")

// get issues one GET against the primary and returns the body of its
// 200 reply; any other status is an error wrapping errAnswered.
func (f *Follower) get(ctx context.Context, p string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.PrimaryURL+p, nil)
	if err != nil {
		return nil, err
	}
	res, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(res.Body, 4<<10))
		res.Body.Close()
		return nil, fmt.Errorf("replica: GET %s: %s (%w)", p, res.Status, errAnswered)
	}
	return res.Body, nil
}
