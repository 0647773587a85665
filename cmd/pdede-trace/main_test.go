package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	pdedesim "repro"
	"repro/internal/trace"
)

func testTrace(t *testing.T) *trace.Memory {
	t.Helper()
	app, err := pdedesim.AppByName("Server-oltp-primary")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pdedesim.BuildTrace(app, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestWriteTraceUnknownCodecLeavesFile pins the -o contract: a bad
// -convert is rejected before the output file is touched.
func TestWriteTraceUnknownCodecLeavesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.pdt")
	want := []byte("old trace")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writeTrace(path, "pdtx", testTrace(t)); err == nil {
		t.Fatal("writeTrace accepted an unknown codec")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("unknown codec rewrote the output: got %q, want %q", got, want)
	}
}

// TestWriteTraceRoundTrip checks that both codecs' output decodes back to
// the records written, and that the reported size is the file's. Each
// write replaces an earlier file atomically: a reader holding the old file
// open still reads it whole.
func TestWriteTraceRoundTrip(t *testing.T) {
	tr := testTrace(t)
	dir := t.TempDir()
	decode := map[string]func(path string) (*trace.Memory, error){
		"pdt": func(path string) (*trace.Memory, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			d, err := trace.NewDecoder(f)
			if err != nil {
				return nil, err
			}
			return trace.Collect(d.Name(), d)
		},
		"pdtz": func(path string) (*trace.Memory, error) {
			z, err := trace.OpenPdtz(path)
			if err != nil {
				return nil, err
			}
			defer z.Close()
			return trace.Collect(z.Name(), z.Open())
		},
	}
	for codec, dec := range decode {
		path := filepath.Join(dir, "out."+codec)
		old := []byte("old trace")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		held, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer held.Close()
		size, err := writeTrace(path, codec, tr)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if got, err := io.ReadAll(held); err != nil || !bytes.Equal(got, old) {
			t.Errorf("%s: a reader holding the old file open read %.40q (err %v), want %q", codec, got, err, old)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(size) {
			t.Fatalf("%s: reported %d bytes, file %v (err %v)", codec, size, st, err)
		}
		got, err := dec(path)
		if err != nil {
			t.Fatalf("%s: decoding: %v", codec, err)
		}
		if got.TraceName != tr.TraceName || !reflect.DeepEqual(got.Records, tr.Records) {
			t.Fatalf("%s: round trip changed the trace (%d records in, %d out)", codec, len(tr.Records), len(got.Records))
		}
	}
}
