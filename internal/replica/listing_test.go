package replica

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ucad/ucad/internal/tenant"
)

// TestTenantIDRuleMatchesRegistry: the replica accepts exactly the ids
// the tenant registry can create. A listed id the registry refuses
// would make every round's CreateReplica fail; one the replica refuses
// would never replicate.
func TestTenantIDRuleMatchesRegistry(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want bool
	}{
		{"default", true},
		{"t1", true},
		{"A-b_9", true},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"", false},
		{"a.b", false},
		{".x", false},
		{"..", false},
		{"-x", false},
		{"_x", false},
		{"a/b", false},
		{"tënant", false},
		{"日本", false},
	} {
		got := validTenantID(tc.id)
		registry := tenant.ValidateID(tc.id) == nil
		if got != tc.want || registry != tc.want {
			t.Errorf("id %q: replica accepts %v, registry accepts %v, want %v", tc.id, got, registry, tc.want)
		}
	}
}

// FuzzReplicaListing: a listing reply is untrusted input. Every file
// the follower would write for it lands inside <root>/tenants/<id>, and
// every id it accepts is one the tenant registry accepts.
func FuzzReplicaListing(f *testing.F) {
	f.Add([]byte(`{"tenants":{"t1":[{"path":"tenant.json","size":9,"mutable":true},{"path":"wal/wal-shard-00-0000000000000001.log","size":64},{"path":"checkpoints/ckpt-00000001.model","size":2048}]}}`))
	f.Add([]byte(`{"tenants":{"..":[{"path":"tenant.json"}],"a.b":[{"path":"wal/x"}],"t2":[{"path":"wal/../../etc/passwd"}]}}`))
	f.Add([]byte(`{"tenants":{"t3":[{"path":"/abs"},{"path":"checkpoints/.hidden"},{"path":"wal\\..\\x"}]}}`))
	f.Add([]byte(`{"tenants":null}`))
	root := filepath.Join(string(filepath.Separator), "standby")
	tenantsRoot := filepath.Join(root, "tenants")
	f.Fuzz(func(t *testing.T, b []byte) {
		var l listing
		if json.Unmarshal(b, &l) != nil {
			return
		}
		for id, files := range l.Tenants {
			dir, local, err := localFiles(root, id, files)
			if err != nil {
				continue
			}
			if err := tenant.ValidateID(id); err != nil {
				t.Fatalf("accepted id the registry refuses: %v", err)
			}
			if len(local) != len(files) {
				t.Fatalf("%d local paths for %d listed files", len(local), len(files))
			}
			for _, p := range append([]string{dir}, local...) {
				rel, err := filepath.Rel(tenantsRoot, p)
				if err != nil {
					t.Fatal(err)
				}
				parts := strings.Split(rel, string(filepath.Separator))
				if parts[0] != id {
					t.Fatalf("id %q: %s lands outside its tenant directory", id, p)
				}
				for _, part := range parts {
					if part == ".." {
						t.Fatalf("id %q: %s escapes the tenants root", id, p)
					}
				}
			}
		}
	})
}
