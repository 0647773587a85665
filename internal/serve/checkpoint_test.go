package serve_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
)

// pinnedDigest is the result digest of testdata/pinned.ckpt: tenant
// "pinned" of testConfig after three batches of 100 records (testRecords
// seed 25), as acked by the server that wrote the file.
const pinnedDigest = "1386d690d929e476"

// TestPinnedCheckpointRestores pins the checkpoint format: a checkpoint
// written by an earlier build restores under this one to the digest that
// build acked, and checkpointing the tenant again writes the same bytes.
func TestPinnedCheckpointRestores(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "pinned.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pinned.ckpt")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	st, err := newTestClient(ts.URL).Stats(context.Background(), "pinned")
	ts.Close()
	if cerr := s.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if st.Digest != pinnedDigest || st.NextSeq != 4 || st.TotalRecords != 300 {
		t.Errorf("restored stats %+v, want digest %s, next_seq 4, 300 records", st, pinnedDigest)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-checkpointed file differs from the pinned one:\n got %s\nwant %s", got, want)
	}
}
