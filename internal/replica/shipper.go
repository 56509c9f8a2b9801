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

	"github.com/ucad/ucad/internal/wal"
)

// Shipper is the primary-side replication endpoint. It reads straight
// from the tenants root on disk — no coupling to the serving layer —
// because everything a standby needs is, by the ship-sealed-only
// invariant, already durable and immutable there: sealed WAL segments,
// snapshots, the stream manifest, model checkpoints, and the tenant
// spec. The listing is the only authority on what ships: the file
// endpoint serves a path only while its tenant's current listing names
// it, so the active segment of every stream is never served.
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
}

// Handler returns the shipper's mux, rooted at /v1/replica.
func (sh *Shipper) Handler() http.Handler {
	if sh.Metrics == nil {
		sh.Metrics = NewMetrics(nil)
	}
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
		files, err := tenantFiles(filepath.Join(sh.Root, e.Name()), wal.SealedStreamFiles)
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

// handleFile streams one file its tenant's current listing names, so a
// follower (or anyone else) can never read the mutable segment tail or
// escape the tenant directory.
func (sh *Shipper) handleFile(w http.ResponseWriter, r *http.Request) {
	id, rel := r.URL.Query().Get("tenant"), r.URL.Query().Get("path")
	if !validTenantID(id) || !validRelPath(rel) {
		sh.refuse(w, "bad tenant id or path", http.StatusBadRequest)
		return
	}
	dir := filepath.Join(sh.Root, id)
	files, err := tenantFiles(dir, wal.SealedStreamNames)
	if err != nil {
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if files == nil {
		sh.refuse(w, "unknown tenant", http.StatusNotFound)
		return
	}
	if !slices.ContainsFunc(files, func(f FileInfo) bool { return f.Path == rel }) {
		sh.refuse(w, "not shippable", http.StatusConflict)
		return
	}
	f, err := os.Open(filepath.Join(dir, filepath.FromSlash(rel)))
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
