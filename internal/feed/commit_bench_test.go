package feed

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// BenchmarkFeederCommit is the feeder's per-batch commit cost with
// {100, 10 000} open sessions: 64 stamped events plus the commit, in
// ns/op, B/op and bytes written to files per commit (the process's
// write-syscall bytes, Linux only). Every event time stays inside the
// idle window, so no sweep shrinks the map — the shape of feed-tail.
// It calls only NewFeeder, sess.Event and commit, so the same file runs
// against older checkpoint formats for a before/after.
func BenchmarkFeederCommit(b *testing.B) {
	for _, open := range []int{100, 10000} {
		b.Run(fmt.Sprintf("sessions=%d", open), func(b *testing.B) {
			f, err := NewFeeder(FeederConfig{
				Source: unpositionedSource{}, Deliver: &ServiceDeliverer{},
				CheckpointPath: filepath.Join(b.TempDir(), "feed.ckpt"),
			})
			if err != nil {
				b.Fatal(err)
			}
			clients := make([]string, open)
			t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
			for i := range clients {
				clients[i] = "c" + strconv.Itoa(i)
				f.sess.Event("", session.Operation{SessionID: clients[i], SQL: "SELECT 1", Time: t0})
			}
			if err := f.commit(); err != nil {
				b.Fatal(err)
			}
			written := writeSyscallBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := t0.Add(time.Duration(i) * time.Millisecond)
				for e := 0; e < 64; e++ {
					f.sess.Event("", session.Operation{SessionID: clients[(i*64+e)%open], SQL: "SELECT 1", Time: ts})
				}
				if err := f.commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if written >= 0 {
				b.ReportMetric(float64(writeSyscallBytes()-written)/float64(b.N), "written-B/op")
			}
		})
	}
}

// writeSyscallBytes reads the process's cumulative write(2) bytes from
// /proc/self/io (-1 where that file does not exist).
func writeSyscallBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("wchar: ")); ok {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}
