package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Checkpoints manages versioned model checkpoints in one directory:
// every Save writes ckpt-<n>.model through WriteAtomic and then flips a
// MANIFEST (also written atomically) whose last history entry is the
// current checkpoint. Because both writes are atomic, a crash at any
// point leaves the manifest pointing at a complete, previously verified
// file. Rollback drops the current checkpoint and re-points at the one
// before it — the escape hatch when a freshly written checkpoint fails
// validation (core.Load rejecting it).
type Checkpoints struct {
	dir string

	mu sync.Mutex
	m  manifest
}

// manifestName is the checkpoint directory's index file.
const manifestName = "MANIFEST"

type manifest struct {
	Version int `json:"version"`
	// History holds checkpoint filenames oldest-first; the last entry is
	// the current checkpoint.
	History []string `json:"history"`
}

// checkpointRetain bounds how many checkpoints are kept: the current
// one and a rollback target.
const checkpointRetain = 2

// OpenCheckpoints opens (creating if needed) a checkpoint directory.
func OpenCheckpoints(dir string) (*Checkpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Checkpoints{dir: dir}
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		return c, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(b, &c.m); err != nil {
		return nil, fmt.Errorf("wal: corrupt checkpoint manifest: %w", err)
	}
	return c, nil
}

// Current returns the absolute path of the current checkpoint, or ""
// when none exists.
func (c *Checkpoints) Current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.m.History); n > 0 {
		return filepath.Join(c.dir, c.m.History[n-1])
	}
	return ""
}

// Count reports how many checkpoints the manifest tracks.
func (c *Checkpoints) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m.History)
}

func checkpointSeq(name string) uint64 {
	name = strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".model")
	seq, _ := strconv.ParseUint(name, 10, 64)
	return seq
}

// Save writes a new checkpoint via the write callback and promotes it
// to current, pruning history beyond checkpointRetain. On error nothing
// is promoted and the previous current stays in effect.
func (c *Checkpoints) Save(write func(io.Writer) error) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var seq uint64
	for _, name := range c.m.History {
		if s := checkpointSeq(name); s > seq {
			seq = s
		}
	}
	name := fmt.Sprintf("ckpt-%08d.model", seq+1)
	path := filepath.Join(c.dir, name)
	if err := WriteAtomic(path, write); err != nil {
		return "", err
	}
	next := append(append([]string(nil), c.m.History...), name)
	var evict []string
	if len(next) > checkpointRetain {
		evict = next[:len(next)-checkpointRetain]
		next = next[len(next)-checkpointRetain:]
	}
	if err := c.writeManifest(manifest{Version: 1, History: next}); err != nil {
		os.Remove(path)
		return "", err
	}
	c.m = manifest{Version: 1, History: next}
	for _, old := range evict {
		os.Remove(filepath.Join(c.dir, old))
	}
	return path, nil
}

// Rollback drops the current checkpoint (deleting its file) and returns
// the path of the newly current one, or "" when the history is empty —
// the caller then falls back to its original model file.
func (c *Checkpoints) Rollback() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m.History)
	if n == 0 {
		return "", nil
	}
	bad := c.m.History[n-1]
	next := append([]string(nil), c.m.History[:n-1]...)
	if err := c.writeManifest(manifest{Version: 1, History: next}); err != nil {
		return "", err
	}
	c.m = manifest{Version: 1, History: next}
	os.Remove(filepath.Join(c.dir, bad))
	if len(next) == 0 {
		return "", nil
	}
	return filepath.Join(c.dir, next[len(next)-1]), nil
}

func (c *Checkpoints) writeManifest(m manifest) error {
	return WriteAtomic(filepath.Join(c.dir, manifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(m)
	})
}
