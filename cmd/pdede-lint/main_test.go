package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis/lintkit/linttest"
)

func TestListAnalyzers(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Fatalf("-list exit %d, want 0", got)
	}
}

func TestUnknownAnalyzerIsOperationalError(t *testing.T) {
	if got := run([]string{"-run", "nope", "./..."}); got != 2 {
		t.Fatalf("-run nope exit %d, want 2", got)
	}
}

// TestUnknownAnalyzerListsValidNames pins the error contract: a typo in
// -run must name every valid analyzer, so the user can fix the invocation
// without opening the source (and so a typo can never silently run an
// empty set).
func TestUnknownAnalyzerListsValidNames(t *testing.T) {
	_, err := selectAnalyzers("determinsm")
	if err == nil {
		t.Fatal("selectAnalyzers accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown analyzer "determinsm"`) {
		t.Errorf("error does not name the bad analyzer: %q", msg)
	}
	for _, a := range suite() {
		if !strings.Contains(msg, a.Name) {
			t.Errorf("error does not list valid analyzer %s: %q", a.Name, msg)
		}
	}
}

// TestCleanTree pins the repository's own lint status: the full suite over
// the full module must report nothing. A violation anywhere in the tree
// fails this test the same way `make lint` does.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree lint skipped in -short mode")
	}
	if got := run([]string{"-C", "../..", "./..."}); got != 0 {
		t.Fatalf("suite over the repository exit %d, want 0 (tree has lint findings)", got)
	}
}

// seedCases is one minimal violating module per analyzer: seeding any single
// violation must flip the exit status to 1.
var seedCases = []struct {
	name     string
	analyzer string
	files    map[string]string
}{
	{
		name:     "determinism",
		analyzer: "determinism",
		files: map[string]string{
			"go.mod": "module seed\n\ngo 1.22\n",
			"internal/btb/btb.go": `package btb

func FirstKey(m map[uint64]int) uint64 {
	for k := range m {
		return k
	}
	return 0
}
`,
		},
	},
	{
		name:     "atomicwrite",
		analyzer: "atomicwrite",
		files: map[string]string{
			"go.mod": "module seed\n\ngo 1.22\n",
			"internal/experiments/persist.go": `package experiments

import "os"

func Save(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
`,
		},
	},
	{
		name:     "addrdomain",
		analyzer: "addrdomain",
		files: map[string]string{
			"go.mod": "module seed\n\ngo 1.22\n",
			"internal/addr/addr.go": `package addr

type (
	RegionID   uint64
	PageNum    uint64
	PageOffset uint64
	SetIndex   uint64
	Tag        uint64
)
`,
			"internal/btb/btb.go": `package btb

import "seed/internal/addr"

func Mix(r addr.RegionID) addr.PageNum {
	return addr.PageNum(r)
}
`,
		},
	},
}

// TestSeededViolations checks, per analyzer, that a single seeded violation
// makes the standalone tool exit 1.
func TestSeededViolations(t *testing.T) {
	for _, tc := range seedCases {
		t.Run(tc.name, func(t *testing.T) {
			root := linttest.WriteModule(t, tc.files)
			if got := run([]string{"-C", root, "-run", tc.analyzer, "./..."}); got != 1 {
				t.Fatalf("seeded %s violation: exit %d, want 1", tc.name, got)
			}
			// The clean remainder of the suite still passes on this module.
			if got := run([]string{"-C", root, "./..."}); got != 1 {
				t.Fatalf("full suite on seeded module: exit %d, want 1", got)
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what f wrote.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJSONOutput pins the -json wire format that CI's lint job reads with jq:
// an array of {file, line, col, analyzer, message}, empty when clean, with
// the exit-status contract unchanged.
func TestJSONOutput(t *testing.T) {
	root := linttest.WriteModule(t, seedCases[0].files) // the determinism seed
	var exit int
	out := captureStdout(t, func() {
		exit = run([]string{"-C", root, "-json", "./..."})
	})
	if exit != 1 {
		t.Fatalf("-json seeded run exit %d, want 1", exit)
	}
	var diags []jsonDiag
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("-json output empty on a seeded violation")
	}
	d := diags[0]
	if d.Analyzer != "determinism" || d.File == "" || d.Line == 0 ||
		!strings.Contains(d.Message, "nondeterministic map iteration") {
		t.Fatalf("malformed diagnostic: %+v", d)
	}

	clean := linttest.WriteModule(t, map[string]string{
		"go.mod":              "module seed\n\ngo 1.22\n",
		"internal/btb/btb.go": "package btb\n\nfunc ID(x uint64) uint64 { return x }\n",
	})
	out = captureStdout(t, func() {
		exit = run([]string{"-C", clean, "-json", "./..."})
	})
	if exit != 0 {
		t.Fatalf("-json clean run exit %d, want 0", exit)
	}
	if err := json.Unmarshal(out, &diags); err != nil || len(diags) != 0 {
		t.Fatalf("clean -json run must emit an empty array, got %q (err %v)", out, err)
	}
}

func TestCleanModuleExitsZero(t *testing.T) {
	root := linttest.WriteModule(t, map[string]string{
		"go.mod": "module seed\n\ngo 1.22\n",
		"internal/btb/btb.go": `package btb

func Sum(m map[uint64]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`,
	})
	if got := run([]string{"-C", root, "./..."}); got != 0 {
		t.Fatalf("clean module exit %d, want 0", got)
	}
}
