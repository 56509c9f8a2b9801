package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/wal"
)

// TestShardIndexStability: the client→shard route is a pure function of
// the id and the shard count — restore and replay depend on it.
func TestShardIndexStability(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, client := range []string{"", "c1", "client-7", "db-frontend-03"} {
			a, b := shardIndex(client, n), shardIndex(client, n)
			if a != b || a < 0 || a >= n {
				t.Fatalf("shardIndex(%q, %d) = %d then %d", client, n, a, b)
			}
		}
	}
	// With enough clients the hash must actually spread (not all-one-shard).
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[shardIndex(fmt.Sprintf("client-%d", i), 4)] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 clients landed on %d of 4 shards", len(used))
	}
}

// TestShardRemapRestore: state written under one shard count restores
// byte-identically under another. Writes with N=4, then restores the
// same directory with N=2 (merge) and N=8 (split), comparing each
// against an uninterrupted non-durable control run.
func TestShardRemapRestore(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()

	clients := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	s1, _ := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 4 })
	for i, client := range clients {
		ingestN(t, s1, client, 3+i, 0)
	}
	s1.Drain()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The control mirrors the WRITER's layout (Shards=4): session ids
	// embed the owning shard's counter, and restore preserves the ids
	// assigned at assembly time regardless of the restore-side layout.
	ctl := NewService(testUCAD(t), Config{Workers: 2, Shards: 4, SweepEvery: -1, Clock: clock.Now})
	for i, client := range clients {
		ingestN(t, ctl, client, 3+i, 0)
	}
	ctl.Drain()
	defer ctl.Stop()
	wantSeq, want := exportedState(ctl)

	for _, n := range []int{2, 8} {
		s, rst := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = n })
		if rst.Sessions != len(clients) {
			t.Fatalf("shards=%d restored %d sessions, want %d", n, rst.Sessions, len(clients))
		}
		gotSeq, got := exportedState(s)
		if gotSeq < wantSeq {
			t.Fatalf("shards=%d: session-id counter regressed: %d < %d", n, gotSeq, wantSeq)
		}
		if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
			t.Fatalf("shards=%d restore diverges from control:\n got %+v\nwant %+v", n, got, want)
		}
		// The remap must settle: manifest at the new layout, no staged
		// merge file left behind.
		man, ok, err := wal.LoadManifest(dir)
		if err != nil || !ok || man.Shards != n || man.Remap {
			t.Fatalf("shards=%d manifest = %+v ok=%v err=%v", n, man, ok, err)
		}
		if _, err := os.Stat(filepath.Join(dir, wal.RemapFile)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("shards=%d left %s behind (err=%v)", n, wal.RemapFile, err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardRemapHardKill: a shard-count change applied after a hard
// kill (no Close, no seal) still restores every acknowledged event —
// the remap runs on crash-recovered state, not only on sealed logs.
func TestShardRemapHardKill(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()

	s1, _ := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 4 })
	for i, client := range []string{"k1", "k2", "k3", "k4", "k5"} {
		ingestN(t, s1, client, 2+i, 0)
	}
	s1.Drain()
	// Abandon without Close: fsync=always made every ack durable.
	s1.engine.Stop()

	ctl := NewService(testUCAD(t), Config{Workers: 2, Shards: 4, SweepEvery: -1, Clock: clock.Now})
	for i, client := range []string{"k1", "k2", "k3", "k4", "k5"} {
		ingestN(t, ctl, client, 2+i, 0)
	}
	ctl.Drain()
	defer ctl.Stop()
	_, want := exportedState(ctl)

	s2, rst := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 2 })
	defer s2.Close(context.Background())
	if rst.CleanSeal {
		t.Fatal("hard kill cannot leave a clean seal")
	}
	_, got := exportedState(s2)
	if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
		t.Fatalf("post-kill remap diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestRestoreRefusesManifestlessStreams: a WAL directory that holds
// stream files but no MANIFEST.json — a lost manifest, or the
// pre-sharding single-stream layout — has an unknown layout. Restore
// must refuse it with an error naming the fix, neither reading it nor
// treating it as fresh, and leave every file in place.
func TestRestoreRefusesManifestlessStreams(t *testing.T) {
	u := testUCAD(t)
	clock := newFakeClock()
	for _, v1 := range []bool{false, true} {
		dir := t.TempDir()
		s1, _ := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 1 })
		ingestN(t, s1, "c1", 4, 0)
		s1.Drain()
		if err := s1.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, wal.ManifestName)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var before []string
		for _, e := range entries {
			name := e.Name()
			if v1 {
				// The pre-sharding releases wrote one unprefixed stream.
				name = strings.Replace(name, "-shard-00-", "-", 1)
				if err := os.Rename(filepath.Join(dir, e.Name()), filepath.Join(dir, name)); err != nil {
					t.Fatal(err)
				}
			}
			before = append(before, name)
		}

		s2 := NewService(u, Config{Workers: 2, SweepEvery: -1, Clock: clock.Now,
			Durability: &DurabilityConfig{Dir: dir, Fsync: wal.SyncAlways}})
		_, err = s2.Restore()
		s2.Stop()
		if err == nil || !strings.Contains(err.Error(), wal.ManifestName) || !strings.Contains(err.Error(), "move the stream files") {
			t.Fatalf("v1=%v: Restore = %v, want a refusal naming %s and the fix", v1, err, wal.ManifestName)
		}
		entries, err = os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var after []string
		for _, e := range entries {
			after = append(after, e.Name())
		}
		if !reflect.DeepEqual(after, before) {
			t.Fatalf("v1=%v: refused restore changed the directory:\n got %v\nwant %v", v1, after, before)
		}
	}
}

// TestShardCrossShardIsolation hammers a sharded service from many
// concurrent clients (run under -race to catch cross-shard aliasing)
// and verifies every accepted event landed in exactly one session at
// its submission position.
func TestShardCrossShardIsolation(t *testing.T) {
	u := testUCAD(t)
	clk := newFakeClock()
	s := NewService(u, Config{Workers: 4, Shards: 4, QueueSize: 1024, SweepEvery: -1, Clock: clk.Now})
	s.Start()
	defer s.Stop()

	const goroutines, perClient = 16, 25
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("iso-%d", g)
			for p := 0; p < perClient; p++ {
				for {
					err := s.Ingest(Event{ClientID: client, User: "app", SQL: normalStatement(p)})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBusy) {
						errc <- fmt.Errorf("%s #%d: %v", client, p, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	s.Drain()

	st := s.Stats()
	if st.EventsAccepted != goroutines*perClient {
		t.Fatalf("accepted %d events, want %d", st.EventsAccepted, goroutines*perClient)
	}
	if st.Shards != 4 {
		t.Fatalf("stats shards = %d, want 4", st.Shards)
	}
	_, sessions := s.exportAll()
	if len(sessions) != goroutines {
		t.Fatalf("%d open sessions, want %d", len(sessions), goroutines)
	}
	for _, ss := range sessions {
		if len(ss.Ops) != perClient {
			t.Fatalf("client %s has %d ops, want %d", ss.Client, len(ss.Ops), perClient)
		}
		for p, op := range ss.Ops {
			if op.SQL != normalStatement(p) {
				t.Fatalf("client %s op %d = %q, want %q", ss.Client, p, op.SQL, normalStatement(p))
			}
		}
	}
	// Every op past MinContext was scored exactly once across shards.
	wantScored := int64(goroutines * (perClient - u.Model.Config().MinContext))
	if st.OpsScored+st.OpsRejected != wantScored {
		t.Fatalf("scored %d + rejected %d, want %d total", st.OpsScored, st.OpsRejected, wantScored)
	}
}

// TestShardHotSwapUnderIngest swaps the model repeatedly while events
// stream in: no event may be dropped, double-ingested, or scored
// against a half-swapped model (the conservation check below fails on
// a dropped or doubled scoring job).
func TestShardHotSwapUnderIngest(t *testing.T) {
	u := testUCAD(t)
	replacement := testUCAD(t)
	clk := newFakeClock()
	s := NewService(u, Config{Workers: 2, Shards: 4, QueueSize: 1024, SweepEvery: -1, Clock: clk.Now})
	s.Start()
	defer s.Stop()

	const goroutines, perClient, swaps = 8, 40, 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("swap-%d", g)
			for p := 0; p < perClient; p++ {
				for {
					err := s.Ingest(Event{ClientID: client, User: "app", SQL: normalStatement(p)})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBusy) {
						errc <- fmt.Errorf("%s #%d: %v", client, p, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := replacement
		for i := 0; i < swaps; i++ {
			if err := s.SwapModel(next); err != nil {
				errc <- fmt.Errorf("swap %d: %v", i, err)
				return
			}
			if next == replacement {
				next = u
			} else {
				next = replacement
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	s.Drain()

	st := s.Stats()
	if st.EventsAccepted != goroutines*perClient {
		t.Fatalf("accepted %d events, want %d (dropped under swap)", st.EventsAccepted, goroutines*perClient)
	}
	if st.ModelSwaps != swaps {
		t.Fatalf("model swaps = %d, want %d", st.ModelSwaps, swaps)
	}
	_, sessions := s.exportAll()
	for _, ss := range sessions {
		if len(ss.Ops) != perClient {
			t.Fatalf("client %s has %d ops, want %d", ss.Client, len(ss.Ops), perClient)
		}
	}
	// Conservation: both models share MinContext (same training recipe),
	// so every position past it produced exactly one scoring job.
	wantScored := int64(goroutines * (perClient - u.Model.Config().MinContext))
	if st.OpsScored+st.OpsRejected != wantScored {
		t.Fatalf("scored %d + rejected %d, want %d (lost or doubled a job mid-swap)", st.OpsScored, st.OpsRejected, wantScored)
	}
}

// TestShardSwapDurableBarrier: SwapModel on a durable service takes the
// all-shard barrier; a graceful restart afterwards restores the
// sessions assembled across the swap.
func TestShardSwapDurableBarrier(t *testing.T) {
	u := testUCAD(t)
	dir := t.TempDir()
	clock := newFakeClock()

	s1, _ := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 2 })
	ingestN(t, s1, "d1", 4, 0)
	if err := s1.SwapModel(testUCAD(t)); err != nil {
		t.Fatal(err)
	}
	ingestN(t, s1, "d1", 3, 4)
	ingestN(t, s1, "d2", 5, 0)
	s1.Drain()
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, rst := durableService(t, u, dir, clock.Now, func(c *Config) { c.Shards = 2 })
	defer s2.Close(context.Background())
	if rst.Sessions != 2 {
		t.Fatalf("restored %d sessions, want 2", rst.Sessions)
	}
	_, got := exportedState(s2)
	if len(got) != 2 || len(got[0].Ops) != 7 || len(got[1].Ops) != 5 {
		t.Fatalf("restored sessions after swap: %+v", got)
	}
}
