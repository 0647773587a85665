package profile

import (
	"os"
	"path/filepath"
	"testing"
)

var sink []byte

// Both profiles are written as gzip-compressed pprof protobufs.
func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sink = make([]byte, 4096)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s is not a gzip-compressed profile (%d bytes)", filepath.Base(path), len(b))
		}
	}
}

// Without paths, Start writes nothing and stop is a no-op.
func TestStartDisabled(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// A path in a missing directory fails Start, before the run.
func TestStartBadPath(t *testing.T) {
	dir := t.TempDir()
	bad, good := filepath.Join(dir, "missing", "x.pprof"), filepath.Join(dir, "ok.pprof")
	if _, err := Start(bad, ""); err == nil {
		t.Error("a CPU profile path in a missing directory was accepted")
	}
	if _, err := Start("", bad); err == nil {
		t.Error("a heap profile path in a missing directory was accepted")
	}
	if _, err := Start(good, bad); err == nil {
		t.Error("a heap profile path in a missing directory was accepted beside a good CPU path")
	}
	if _, err := Start(bad, good); err == nil {
		t.Error("a CPU profile path in a missing directory was accepted beside a good heap path")
	}
}
