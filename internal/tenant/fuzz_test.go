package tenant

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSpec: a tenant's tenant.json is read back on every boot (and
// mirrored onto standbys), so its bytes are untrusted. readSpec must
// never panic, and a spec it accepts must round-trip through writeSpec.
// The seeds are files writeSpec wrote.
func FuzzReadSpec(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, specFile)
	for _, sp := range []Spec{{ID: "default"}, {ID: "t-1", ModelPath: "models/a.model"}} {
		if err := writeSpec(dir, sp); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := readSpec(dir)
		if err != nil {
			return
		}
		if err := writeSpec(dir, sp); err != nil {
			t.Fatal(err)
		}
		if again, err := readSpec(dir); err != nil || again != sp {
			t.Fatalf("spec %+v written back reads as %+v (err %v)", sp, again, err)
		}
	})
}
