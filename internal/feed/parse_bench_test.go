package feed

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"github.com/ucad/ucad/internal/session"
)

// BenchmarkParseJSONLine parses audit-log lines shaped like the
// workload's (per line).
func BenchmarkParseJSONLine(b *testing.B) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	lines := make([][]byte, 64)
	for i := range lines {
		line, err := json.Marshal(session.Operation{Time: t0.Add(time.Duration(i) * time.Millisecond),
			User: fmt.Sprintf("app%d", i%4), Addr: fmt.Sprintf("10.0.%d.%d:5%d", i%7, i%13, i%10),
			SessionID: fmt.Sprint(i % 17), SQL: normalStatement(i)})
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = line
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseJSONLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}
