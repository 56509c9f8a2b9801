package main

import (
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// childArgsEnv re-executes the test binary as the command itself: main
// runs with the newline-separated arguments it holds.
const childArgsEnv = "UCAD_FLAGS_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgsEnv); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A flag definition in -h output: "  -name type", or "  -x\tusage" for a
// one-letter bool. The test binary's own "-test.*" flags do not match.
var flagDefined = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)(?:[ \t]|$)`)

// A flag mention in the usage block: "-name" after whitespace or "[".
var flagMention = regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)

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

// defined runs the real command with args (ending in -h) and returns the
// flags its help output defines.
func defined(t *testing.T, args ...string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return flagNames(flagDefined, string(out))
}

// usageBlock returns the package comment's Usage: block.
func usageBlock(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(b), "// Usage:\n")
	if !ok {
		t.Fatal("main.go: no usage block")
	}
	rest, _, _ = strings.Cut(rest, "\n// ")
	return rest
}

// TestFlagSurfaceMatchesDocs pins the flags the real binary defines to
// the package comment's usage block, and their count.
func TestFlagSurfaceMatchesDocs(t *testing.T) {
	got := defined(t, "-h")
	if len(got) != 6 {
		t.Fatalf("tracegen -h defines %d flags, want 6: %v", len(got), got)
	}
	if usage := flagNames(flagMention, usageBlock(t)); !reflect.DeepEqual(usage, got) {
		t.Errorf("main.go usage block names\n %v\nbut -h defines\n %v", usage, got)
	}
}
