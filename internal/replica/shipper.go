package replica

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/ucad/ucad/internal/wal"
)

// Shipper is the primary-side replication endpoint. It reads straight
// from the tenants root on disk — no coupling to the serving layer —
// because everything a standby needs is, by the ship-sealed-only
// invariant, already durable and immutable there: sealed WAL segments,
// snapshots, the stream manifest, model checkpoints, and the tenant
// spec. The active segment of every stream is recomputed per request
// and never served.
//
// Endpoints (mount under /v1/replica/):
//
//	GET {prefix}/tenants            -> {"tenants":[...]}
//	GET {prefix}/files?tenant=ID    -> {"files":[{path,size,mutable}]}
//	GET {prefix}/file?tenant=ID&path=REL -> raw bytes
type Shipper struct {
	// Root is the tenants root (<data-dir>/tenants): one subdirectory
	// per tenant, each holding tenant.json, wal/, checkpoints/.
	Root string
	// Metrics is optional.
	Metrics *Metrics
}

// Handler returns the shipper's mux. Paths are rooted at prefix
// (default "/v1/replica").
func (sh *Shipper) Handler(prefix string) http.Handler {
	if prefix == "" {
		prefix = "/v1/replica"
	}
	prefix = strings.TrimSuffix(prefix, "/")
	mux := http.NewServeMux()
	mux.HandleFunc(prefix+"/tenants", sh.handleTenants)
	mux.HandleFunc(prefix+"/files", sh.handleFiles)
	mux.HandleFunc(prefix+"/file", sh.handleFile)
	return mux
}

func (sh *Shipper) refuse(w http.ResponseWriter, msg string, code int) {
	if sh.Metrics != nil {
		sh.Metrics.shipErrors.Inc()
	}
	http.Error(w, msg, code)
}

// handleTenants lists the tenant ids with a persisted spec.
func (sh *Shipper) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		sh.refuse(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ents, err := os.ReadDir(sh.Root)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ids := []string{}
	for _, e := range ents {
		if !e.IsDir() || !validTenantID(e.Name()) {
			continue
		}
		if _, err := os.Stat(filepath.Join(sh.Root, e.Name(), specFile)); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	if sh.Metrics != nil {
		sh.Metrics.listRequests.Inc()
	}
	writeJSON(w, tenantsReply{Tenants: ids})
}

// tenantDir validates the id and resolves its directory, or writes an
// error and returns "".
func (sh *Shipper) tenantDir(w http.ResponseWriter, r *http.Request) string {
	id := r.URL.Query().Get("tenant")
	if !validTenantID(id) {
		sh.refuse(w, "bad tenant id", http.StatusBadRequest)
		return ""
	}
	dir := filepath.Join(sh.Root, id)
	if _, err := os.Stat(filepath.Join(dir, specFile)); err != nil {
		sh.refuse(w, "unknown tenant", http.StatusNotFound)
		return ""
	}
	return dir
}

// handleFiles lists one tenant's replicable files: the spec, every
// sealed WAL stream file (wal.SealedStreamFiles — snapshots, sealed
// segments, the manifest, the remap staging file), and the checkpoint
// directory (immutable ckpt-* payloads plus its mutable MANIFEST).
func (sh *Shipper) handleFiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		sh.refuse(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	dir := sh.tenantDir(w, r)
	if dir == "" {
		return
	}
	var files []FileInfo
	if fi, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
		files = append(files, FileInfo{Path: specFile, Size: fi.Size(), Mutable: true})
	}
	sealed, err := wal.SealedStreamFiles(filepath.Join(dir, walSubdir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, f := range sealed {
		files = append(files, FileInfo{Path: walSubdir + "/" + f.Name, Size: f.Size, Mutable: f.Mutable})
	}
	ents, err := os.ReadDir(filepath.Join(dir, ckptSubdir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		sh.refuse(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !validBaseName(name) || strings.HasSuffix(name, ".tmp") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		// Checkpoint payloads are written once and only ever deleted;
		// the checkpoint MANIFEST flips atomically but changes content.
		files = append(files, FileInfo{
			Path:    ckptSubdir + "/" + name,
			Size:    fi.Size(),
			Mutable: name == "MANIFEST",
		})
	}
	if sh.Metrics != nil {
		sh.Metrics.listRequests.Inc()
	}
	writeJSON(w, filesReply{Files: files})
}

// handleFile streams one replicable file. The path grammar is enforced
// and WAL segments are re-checked against the current active set, so a
// follower (or anyone else) can never read the mutable segment tail or
// escape the tenant directory.
func (sh *Shipper) handleFile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		sh.refuse(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	dir := sh.tenantDir(w, r)
	if dir == "" {
		return
	}
	rel := r.URL.Query().Get("path")
	if !validRelPath(rel) {
		sh.refuse(w, "bad path", http.StatusBadRequest)
		return
	}
	base := filepath.Base(rel)
	if strings.HasPrefix(rel, walSubdir+"/") {
		if prefix, seq, ok := wal.SplitSegmentName(base); ok {
			active, err := activeSegment(filepath.Join(dir, walSubdir), prefix)
			if err != nil {
				sh.refuse(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if seq >= active {
				sh.refuse(w, "segment is active", http.StatusConflict)
				return
			}
		}
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
	if sh.Metrics != nil {
		id := r.URL.Query().Get("tenant")
		sh.Metrics.shippedFiles.With(id).Inc()
		sh.Metrics.shippedBytes.With(id).Add(n)
	}
}

// activeSegment returns the highest segment seq of prefix's stream (the
// one still being appended to), or 0 when the stream has no segments.
func activeSegment(walDir, prefix string) (uint64, error) {
	seqs, err := wal.ListSegmentSeqs(walDir, prefix)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	if len(seqs) == 0 {
		return 0, nil
	}
	return seqs[len(seqs)-1], nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
