package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoints manages versioned model checkpoints in one directory.
// Every Save writes ckpt-<n>.model through WriteAtomic, so a name that
// exists is a complete file and the directory listing is the history:
// the highest n is the current checkpoint. Rollback deletes the current
// file and falls back to the next newest — the escape hatch when a
// freshly written checkpoint fails validation (core.Load rejecting it).
// Any other file in the directory (a MANIFEST an older build wrote) is
// neither read nor touched.
type Checkpoints struct {
	dir string

	mu   sync.Mutex
	seqs []uint64 // checkpoint numbers on disk, ascending
}

const checkpointPrefix, checkpointSuffix = "ckpt-", ".model"

// checkpointRetain bounds how many checkpoints are kept: the current
// one and a rollback target.
const checkpointRetain = 2

// IsCheckpointName reports whether name is a checkpoint file's
// (ckpt-<n>.model): how a replica tells them from other files.
func IsCheckpointName(name string) bool {
	_, ok := parseSeq(name, checkpointPrefix, checkpointSuffix)
	return ok
}

// OpenCheckpoints opens (creating if needed) a checkpoint directory.
func OpenCheckpoints(dir string) (*Checkpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSeqs(dir, checkpointPrefix, checkpointSuffix)
	if err != nil {
		return nil, err
	}
	return &Checkpoints{dir: dir, seqs: seqs}, nil
}

func (c *Checkpoints) path(seq uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s%08d%s", checkpointPrefix, seq, checkpointSuffix))
}

// current returns the newest checkpoint's path, or "" when none exists.
// c.mu must be held.
func (c *Checkpoints) current() string {
	if n := len(c.seqs); n > 0 {
		return c.path(c.seqs[n-1])
	}
	return ""
}

// Current returns the absolute path of the current checkpoint, or ""
// when none exists.
func (c *Checkpoints) Current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current()
}

// Count reports how many checkpoints the directory holds.
func (c *Checkpoints) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seqs)
}

// Save writes a new checkpoint via the write callback and promotes it
// to current, pruning history beyond checkpointRetain. On error nothing
// is promoted and the previous current stays in effect.
func (c *Checkpoints) Save(write func(io.Writer) error) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := uint64(1)
	if n := len(c.seqs); n > 0 {
		seq = c.seqs[n-1] + 1
	}
	path := c.path(seq)
	if err := WriteAtomic(path, write); err != nil {
		return "", err
	}
	c.seqs = append(c.seqs, seq)
	for len(c.seqs) > checkpointRetain {
		os.Remove(c.path(c.seqs[0]))
		c.seqs = c.seqs[1:]
	}
	return path, nil
}

// Rollback drops the current checkpoint (deleting its file) and returns
// the path of the newly current one, or "" when the history is empty —
// the caller then falls back to its original model file.
func (c *Checkpoints) Rollback() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.seqs)
	if n == 0 {
		return "", nil
	}
	if err := os.Remove(c.current()); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	c.seqs = c.seqs[:n-1]
	return c.current(), nil
}
