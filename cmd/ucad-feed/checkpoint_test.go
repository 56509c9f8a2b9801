package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointNamePerSourcePath: two sources sharing a base name get
// two checkpoint stores in one -offset-dir, and one source always gets
// the same one (relative and absolute spellings included).
func TestCheckpointNamePerSourcePath(t *testing.T) {
	a, err := checkpointName("/db1/audit.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpointName("/db2/audit.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("/db1/audit.jsonl and /db2/audit.jsonl share checkpoint %q", a)
	}
	for _, name := range []string{a, b} {
		if !strings.HasPrefix(name, "audit.jsonl-") || !strings.HasSuffix(name, ".ckpt") || len(name) != len("audit.jsonl-")+8+len(".ckpt") {
			t.Fatalf("checkpoint name %q, want audit.jsonl-<8 hex>.ckpt", name)
		}
	}
	again, _ := checkpointName("/db1/audit.jsonl")
	if again != a {
		t.Fatalf("unstable name: %q then %q", a, again)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := checkpointName("audit.jsonl")
	abs, _ := checkpointName(filepath.Join(wd, "audit.jsonl"))
	if rel != abs {
		t.Fatalf("relative and absolute spellings of one path: %q vs %q", rel, abs)
	}
}

// TestFeedRefusesLegacyCheckpointFile: a single-file checkpoint an
// older ucad-feed left in -offset-dir stops the feeder with a message
// naming it, and stays as it was — never a silent restart from offset 0.
func TestFeedRefusesLegacyCheckpointFile(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process e2e")
	}
	dir := t.TempDir()
	source := filepath.Join(dir, "audit.jsonl")
	offsetDir := filepath.Join(dir, "offsets")
	if err := os.MkdirAll(offsetDir, 0o755); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(offsetDir, "audit.jsonl.ckpt")
	old := []byte(`{"pos":{"kind":"file","file":{"ino":7,"offset":4096}},"sessions":{"c1":{"epoch":1,"seq":3,"last":"2026-01-01T00:00:00Z"}},"epoch":1}`)
	if err := os.WriteFile(legacy, old, 0o644); err != nil {
		t.Fatal(err)
	}
	c := startChild(t, "-source", source, "-serve-url", "http://127.0.0.1:1", "-offset-dir", offsetDir)
	if err := c.cmd.Wait(); err == nil {
		t.Fatalf("ucad-feed started beside a legacy checkpoint:\n%s", c.log())
	}
	if !strings.Contains(c.log(), legacy) {
		t.Fatalf("refusal does not name %s:\n%s", legacy, c.log())
	}
	if b, err := os.ReadFile(legacy); err != nil || !bytes.Equal(b, old) {
		t.Fatalf("legacy checkpoint changed: %q, %v", b, err)
	}
	if ents, _ := os.ReadDir(offsetDir); len(ents) != 1 {
		t.Fatalf("offset dir holds %d entries, want only the legacy file", len(ents))
	}
}
