package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// A flag mention in prose: "-name" after whitespace, "[" or a backtick.
var flagMention = regexp.MustCompile("(?:^|[\\s\\[`])-([a-z][a-z0-9-]*)")

// A row of README's flag table: "| `-name` | meaning |".
var flagRow = regexp.MustCompile("(?m)^\\| `-([a-z][a-z0-9-]*)`")

// A flag definition in -h output: "  -name type". The test binary's own
// "-test.*" flags do not match.
var flagDefined = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)(?: |$)`)

func flagNames(re *regexp.Regexp, text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			out = append(out, m[1])
		}
	}
	sort.Strings(out)
	return out
}

// between cuts file's text after the first start marker up to the next
// end marker.
func between(t *testing.T, file, start, end string) string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), start)
	if !ok {
		t.Fatalf("%s: no %q", file, start)
	}
	rest, _, _ = strings.Cut(rest, end)
	return rest
}

// TestFlagSurfaceMatchesDocs pins the flags the real binary defines to
// the two places that document them: a flag added or removed without
// the package comment's usage block and README's flag table following
// fails here. The count is pinned too — growing the serving-side flag
// surface is a decision, not a side effect.
func TestFlagSurfaceMatchesDocs(t *testing.T) {
	c := startChild(t, "-h")
	c.cmd.Wait()
	defined := flagNames(flagDefined, c.log())
	if len(defined) != 24 {
		t.Fatalf("ucad-serve -h defines %d flags, want 24: %v", len(defined), defined)
	}
	usage := between(t, "main.go", "// Usage:\n", "\n// ")
	if got := flagNames(flagMention, usage); !reflect.DeepEqual(got, defined) {
		t.Errorf("main.go usage block names\n %v\nbut -h defines\n %v", got, defined)
	}
	table := between(t, "../../README.md", "### `ucad-serve` flags\n", "\n#")
	if got := flagNames(flagRow, table); !reflect.DeepEqual(got, defined) {
		t.Errorf("README flag table names\n %v\nbut -h defines\n %v", got, defined)
	}
}
