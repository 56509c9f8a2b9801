// Package replica implements warm-standby replication for the serving
// layer: a primary-side Shipper that exports each tenant's durable
// state over HTTP — sealed WAL segments, snapshots, the layout
// manifest, model checkpoints, the tenant spec — and a standby-side
// Follower that pulls continuously, verifies the CRC32C record framing
// of everything it receives, persists an identical on-disk layout, and
// replays the shipped history into Targets — durable serve.Services that
// have not gone live (sessions warm, model current, score cache warmed).
//
// The correctness contract is ship-sealed-only: the active WAL segment
// — the only file the primary ever mutates in place — never ships, so
// every shipped byte is immutable and the standby's state is always
// "newest valid snapshot + idempotent sealed-segment replay", exactly
// what a restart of the primary itself would rebuild. The tail the
// standby is missing at failover (events acknowledged into the
// primary's active segment) is recovered by the feeder redelivering
// from its failover checkpoint: deterministic re-sessionization
// reproduces the same (epoch, seq) dedupe coordinates, the promoted
// standby absorbs the overlap as duplicates, and the missing tail
// appends fresh — exactly-once sessions across the switch.
package replica

import (
	"path"
	"strings"
)

// Shipped-path grammar. A tenant's replicable files are addressed by
// forward-slash relative paths within its data directory:
//
//	tenant.json
//	wal/<name>
//	checkpoints/<name>
//
// with <name> a clean base name (no separators, no leading dot). The
// shipper refuses anything else, so a crafted path can never escape the
// tenant directory.

// specFile is the tenant spec's file name within a tenant directory
// (mirrors internal/tenant).
const specFile = "tenant.json"

// walSubdir and ckptSubdir are the shipped subdirectories.
const (
	walSubdir  = "wal"
	ckptSubdir = "checkpoints"
)

// validRelPath reports whether p is a well-formed shipped path.
func validRelPath(p string) bool {
	if p == specFile {
		return true
	}
	dir, base, found := strings.Cut(p, "/")
	if !found || (dir != walSubdir && dir != ckptSubdir) {
		return false
	}
	return validBaseName(base)
}

// validBaseName accepts clean single-component file names.
func validBaseName(name string) bool {
	if name == "" || name == "." || name == ".." ||
		strings.HasPrefix(name, ".") || path.Base(name) != name ||
		strings.ContainsAny(name, `/\`) {
		return false
	}
	return true
}

// validTenantID mirrors the tenant registry's conservative id charset;
// the shipper and follower both refuse anything that could be a path
// component trick.
func validTenantID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(id, ".")
}

// FileInfo is one replicable file in a tenant's directory.
type FileInfo struct {
	// Path is the file's relative path (see the grammar above).
	Path string `json:"path"`
	Size int64  `json:"size"`
	// Mutable marks files whose bytes may change in place (manifests,
	// the tenant spec): the follower re-fetches them every round.
	Mutable bool `json:"mutable,omitempty"`
}

// tenantsReply is the shipper's tenant-listing payload.
type tenantsReply struct {
	Tenants []string `json:"tenants"`
}

// filesReply is the shipper's per-tenant file-listing payload.
type filesReply struct {
	Files []FileInfo `json:"files"`
}
