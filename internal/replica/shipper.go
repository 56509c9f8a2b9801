package replica

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"github.com/ucad/ucad/internal/wal"
)

// Shipper is the primary-side replication endpoint. It reads straight
// from the tenants root on disk — no coupling to the serving layer —
// because everything a standby needs is, by the ship-sealed-only
// invariant, already durable and immutable there: sealed WAL segments,
// snapshots, the stream manifest, model checkpoints, and the tenant
// spec. The listing is the only authority on what ships: the file
// endpoint serves a path only while its tenant's current listing names
// it, so the active segment of every stream is never served. A file
// request is checked against the tenant's last listing, which is
// rebuilt only when the request names a file it does not hold or the
// tenant's layout changed since (see shipped): a standby catching up N
// files costs the primary O(N) directory reads, not O(N²).
//
// Endpoints (mount under /v1/replica/):
//
//	GET /v1/replica/files                   -> {"tenants":{"ID":[{path,size,mutable}]}}
//	GET /v1/replica/file?tenant=ID&path=REL -> raw bytes
type Shipper struct {
	// Root is the tenants root (<data-dir>/tenants): one subdirectory
	// per tenant, each holding tenant.json, wal/, checkpoints/.
	Root string
	// Metrics defaults to a private NewMetrics(nil) at Handler.
	Metrics *Metrics

	mu    sync.Mutex
	known map[string]*shipped // each tenant's last listing, by id
}

// shipped is what a file request is checked against: the names one
// tenant's last listing held, and the identity of the two files that
// every change able to reuse a name rewrites — the spec (a tenant
// deleted and created again) and the WAL manifest (a shard remap, or a
// promotion reseeding the streams). While both are the files the
// listing saw, every name it held is still shippable: segment sequence
// numbers only grow, so a sealed segment never turns active again, and
// snapshots and checkpoints are written once.
type shipped struct {
	names          map[string]bool
	spec, manifest os.FileInfo
}

// layout stats a tenant directory's spec and WAL manifest (nil for a
// file that is not there).
func layout(dir string) (spec, manifest os.FileInfo) {
	spec, _ = os.Stat(filepath.Join(dir, specFile))
	manifest, _ = os.Stat(filepath.Join(dir, walSubdir, wal.ManifestName))
	return spec, manifest
}

// sameFile reports whether two stats of one path found the same,
// unmodified file (or both found none).
func sameFile(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == b
	}
	return os.SameFile(a, b) && a.ModTime().Equal(b.ModTime()) && a.Size() == b.Size()
}

// list lists tenant id's shippable files and keeps the listing as the
// tenant's last (forgetting the tenant when it has none). The layout is
// read first: a change racing the listing then leaves it stale, never
// current.
func (sh *Shipper) list(id string, sealedFiles func(string) ([]wal.StreamFile, error)) ([]FileInfo, error) {
	dir := filepath.Join(sh.Root, id)
	spec, manifest := layout(dir)
	files, err := tenantFiles(dir, sealedFiles)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil || files == nil {
		delete(sh.known, id)
		return files, err
	}
	s := &shipped{names: make(map[string]bool, len(files)), spec: spec, manifest: manifest}
	for _, f := range files {
		s.names[f.Path] = true
	}
	sh.known[id] = s
	return files, nil
}

// lists reports whether tenant id's listing names rel (known=false: no
// such tenant), from its last listing while that holds rel and the
// layout is unchanged, from a fresh one otherwise.
func (sh *Shipper) lists(id, rel string) (known, listed bool, err error) {
	sh.mu.Lock()
	s := sh.known[id]
	sh.mu.Unlock()
	if s != nil && s.names[rel] {
		spec, manifest := layout(filepath.Join(sh.Root, id))
		if sameFile(spec, s.spec) && sameFile(manifest, s.manifest) {
			return true, true, nil
		}
	}
	files, err := sh.list(id, wal.SealedStreamNames)
	if err != nil || files == nil {
		return false, false, err
	}
	return true, slices.ContainsFunc(files, func(f FileInfo) bool { return f.Path == rel }), nil
}

// Handler returns the shipper's mux, rooted at /v1/replica.
func (sh *Shipper) Handler() http.Handler {
	if sh.Metrics == nil {
		sh.Metrics = NewMetrics(nil)
	}
	sh.known = map[string]*shipped{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replica/files", sh.handleFiles)
	mux.HandleFunc("GET /v1/replica/file", sh.handleFile)
	return mux
}

func (sh *Shipper) refuse(w http.ResponseWriter, msg string, code int) {
	sh.Metrics.shipErrors.Inc()
	http.Error(w, msg, code)
}

// handleFiles lists every tenant with a persisted spec and its
// shippable files; one whose directory cannot be read is left out (a
// ship error), and a follower keeps what it already holds of it.
func (sh *Shipper) handleFiles(w http.ResponseWriter, r *http.Request) {
	ents, err := os.ReadDir(sh.Root)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reply := listing{Tenants: map[string][]FileInfo{}}
	for _, e := range ents {
		if !e.IsDir() || !validTenantID(e.Name()) {
			continue
		}
		files, err := sh.list(e.Name(), wal.SealedStreamFiles)
		if err != nil {
			sh.Metrics.shipErrors.Inc()
			continue
		}
		if files != nil {
			reply.Tenants[e.Name()] = files
		}
	}
	sh.Metrics.listRequests.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// tenantFiles lists one tenant directory's shippable files: the spec,
// every sealed WAL stream file (wal.SealedStreamFiles — snapshots,
// sealed segments, the manifest, the remap staging file — or, when only
// the names matter, wal.SealedStreamNames, which skips a stat per file),
// and every model checkpoint (wal.IsCheckpointName: written once, only
// ever deleted). It returns nil when the directory holds no spec, which
// is no tenant.
func tenantFiles(dir string, sealedFiles func(string) ([]wal.StreamFile, error)) ([]FileInfo, error) {
	fi, err := os.Stat(filepath.Join(dir, specFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	files := []FileInfo{{Path: specFile, Size: fi.Size(), Mutable: true}}
	sealed, err := sealedFiles(filepath.Join(dir, walSubdir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	for _, f := range sealed {
		files = append(files, FileInfo{Path: walSubdir + "/" + f.Name, Size: f.Size, Mutable: f.Mutable})
	}
	ents, err := os.ReadDir(filepath.Join(dir, ckptSubdir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() || !wal.IsCheckpointName(e.Name()) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			files = append(files, FileInfo{Path: ckptSubdir + "/" + e.Name(), Size: fi.Size()})
		}
	}
	return files, nil
}

// handleFile streams one file its tenant's listing names, so a follower
// (or anyone else) can never read the mutable segment tail or escape
// the tenant directory. A listed file pruned since answers 404.
func (sh *Shipper) handleFile(w http.ResponseWriter, r *http.Request) {
	id, rel := r.URL.Query().Get("tenant"), r.URL.Query().Get("path")
	if !validTenantID(id) || !validRelPath(rel) {
		sh.refuse(w, "bad tenant id or path", http.StatusBadRequest)
		return
	}
	known, listed, err := sh.lists(id, rel)
	switch {
	case err != nil:
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	case !known:
		sh.refuse(w, "unknown tenant", http.StatusNotFound)
		return
	case !listed:
		sh.refuse(w, "not shippable", http.StatusConflict)
		return
	}
	f, err := os.Open(filepath.Join(sh.Root, id, filepath.FromSlash(rel)))
	if err != nil {
		sh.refuse(w, "not found", http.StatusNotFound)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	n, _ := io.Copy(w, f)
	sh.Metrics.shippedFiles.With(id).Inc()
	sh.Metrics.shippedBytes.With(id).Add(n)
}
