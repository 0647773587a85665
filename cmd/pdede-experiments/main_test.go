package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestUnknownIDLeavesReportUntouched pins the -run contract: every id is
// resolved before -o is opened or any experiment runs, so a mistyped id
// exits 1 and an existing report keeps its bytes, even when valid ids come
// first in the list.
func TestUnknownIDLeavesReportUntouched(t *testing.T) {
	for _, spec := range []string{"fig1O", "fig10,fig1O"} {
		t.Run(spec, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.txt")
			want := []byte("an earlier report\n")
			if err := os.WriteFile(out, want, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := run([]string{"-run", spec, "-o", out, "-apps", "1", "-instrs", "20000", "-warmup", "5000"}); got != 1 {
				t.Fatalf("-run %s exit %d, want 1", spec, got)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("-run %s rewrote -o: got %q, want %q", spec, got, want)
			}
		})
	}
}

// TestFailedRunLeavesReportUntouched: -o is written only after a sweep in
// which every experiment succeeded (or under -keep-going), so a run that
// fails part way keeps an existing report's bytes. A 1 ms per-app budget
// fails fig10 at its first app.
func TestFailedRunLeavesReportUntouched(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.txt")
	want := []byte("a complete earlier report\n")
	if err := os.WriteFile(out, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := run([]string{"-run", "fig10", "-apps", "2", "-timeout", "1ms", "-o", out}); got != 1 {
		t.Fatalf("exit %d, want 1", got)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("a failed run rewrote -o: got %d bytes %q, want %q", len(got), got, want)
	}
}

// TestReportReplacesAtomically: a run that succeeds replaces an existing
// -o report by rename, so a reader holding the old report open still reads
// it whole, and a fresh open reads the new one.
func TestReportReplacesAtomically(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.txt")
	old := []byte("a complete earlier report\n")
	if err := os.WriteFile(out, old, 0o644); err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if got := run([]string{"-run", "fig10", "-apps", "1", "-instrs", "20000", "-warmup", "5000", "-o", out}); got != 0 {
		t.Fatalf("exit %d, want 0", got)
	}
	if got, err := io.ReadAll(held); err != nil || !bytes.Equal(got, old) {
		t.Errorf("a reader holding the old report open read %.40q (err %v), want %q", got, err, old)
	}
	fresh, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fresh, []byte("Figure 10")) {
		t.Errorf("a fresh open did not read the new report:\n%.300s", fresh)
	}
}

func TestExperimentIDs(t *testing.T) {
	if ids, err := experimentIDs(""); err != nil || len(ids) != 0 {
		t.Fatalf(`experimentIDs("") = %v, %v; want no ids`, ids, err)
	}
	ids, err := experimentIDs(" fig10 , ext-models")
	if err != nil || len(ids) != 2 || ids[0] != "fig10" || ids[1] != "ext-models" {
		t.Fatalf("experimentIDs(list) = %v, %v", ids, err)
	}
	for _, spec := range []string{"all", "ext"} {
		if ids, err := experimentIDs(spec); err != nil || len(ids) == 0 {
			t.Fatalf("experimentIDs(%q) = %v, %v", spec, ids, err)
		}
	}
	if _, err := experimentIDs("fig10,"); err == nil {
		t.Fatal("an empty id in the list was accepted")
	}
}
