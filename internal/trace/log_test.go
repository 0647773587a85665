package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/isa"
	"repro/internal/rng"
)

// writeStream is Write into memory.
func writeStream(t testing.TB, name string, recs []isa.Branch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, name, (&Memory{TraceName: name, Records: recs}).Open()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAll drains r, returning the records before the first error and
// that error (nil at a clean end of trace).
func decodeAll(r Reader) ([]isa.Branch, error) {
	var recs []isa.Branch
	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, b)
	}
}

func TestRecordLogStreamMatchesWrite(t *testing.T) {
	recs := makeTrace(700).Records
	var l RecordLog
	l.Append(recs[:300])
	l.Append(recs[300:])
	want := writeStream(t, "two", recs)
	if got := l.Stream("two"); !bytes.Equal(got, want) {
		t.Fatalf("stream of two appends differs from Write: %d bytes, want %d", len(got), len(want))
	}
	if l.Len() != len(recs) {
		t.Errorf("Len = %d, want %d", l.Len(), len(recs))
	}
	// The stream is the header, the records and the one-byte trailer; the
	// log's array holds at least the records.
	if hdr := len(appendHeader(nil, "two")); l.Size() < len(want)-hdr-1 {
		t.Errorf("Size = %d, below the %d bytes of records", l.Size(), len(want)-hdr-1)
	}
	got, err := decodeAll(l.Open())
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("log reader: %d records, err %v; want the %d appended", len(got), err, len(recs))
	}
	var empty RecordLog
	if got := empty.Stream("none"); !bytes.Equal(got, writeStream(t, "none", nil)) {
		t.Errorf("empty log streams %q", got)
	}
}

// TestParseRecordLog: a parsed log keeps the stream's record bytes, drops
// what follows the trailer, and carries the delta chain on into the next
// append.
func TestParseRecordLog(t *testing.T) {
	recs := makeTrace(500).Records
	stream := writeStream(t, "p", recs[:200])
	in := append(append([]byte{}, stream...), "trailing bytes"...)
	l, err := ParseRecordLog(in)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 200 || !bytes.Equal(l.Stream("p"), stream) {
		t.Fatalf("parsed log: %d records, stream equal %v", l.Len(), bytes.Equal(l.Stream("p"), stream))
	}
	if hdr := len(appendHeader(nil, "p")); &l.data[0] != &in[hdr] {
		t.Error("parsed log copied the stream's record bytes instead of keeping them")
	}
	l.Append(recs[200:])
	if !bytes.Equal(l.Stream("p"), writeStream(t, "p", recs)) {
		t.Error("append after parse differs from Write of every record")
	}
	if !bytes.Equal(in[:len(stream)], stream) || string(in[len(stream):]) != "trailing bytes" {
		t.Error("append after parse wrote into the parsed stream")
	}

	// A padded varint (block length 5 as 0x85 0x00) decodes, and the log
	// holds its shortest encoding.
	padded := []byte("PDT1\x01x\x02\x85\x00\x02\x04\xff")
	l, err = ParseRecordLog(padded)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := decodeAll(d)
	if !bytes.Equal(l.Stream("x"), writeStream(t, "x", want)) {
		t.Errorf("padded record kept as %x, want the shortest encoding", l.data)
	}
}

// TestDecoderErrorPositions pins each decode failure's record index, byte
// offset and field, for the stream Decoder (over whole and one-byte reads)
// and for ParseRecordLog. The header "PDT1\x01x" is 6 bytes.
func TestDecoderErrorPositions(t *testing.T) {
	const hdr = "PDT1\x01x"
	cases := []struct{ body, want string }{
		{"", "trace: record 0 at byte offset 6: truncated stream: unexpected EOF"},
		{"\x0e", "trace: record 0 at byte offset 7: invalid kind: kind 7"},
		{"\x02", "trace: record 0 at byte offset 7: reading block length: unexpected EOF"},
		{"\x02\x00", "trace: record 0 at byte offset 8: invalid block length: length 0"},
		{"\x02\x80\x80\x04", "trace: record 0 at byte offset 10: invalid block length: length 65536"},
		{"\x02" + "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01", "trace: record 0 at byte offset 17: reading block length: binary: varint overflows a 64-bit integer"},
		{"\x02\x05\x80", "trace: record 0 at byte offset 9: reading pc delta: unexpected EOF"},
		{"\x02\x05" + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", "trace: record 0 at byte offset 18: reading pc delta: binary: varint overflows a 64-bit integer"},
		{"\x02\x05\x02", "trace: record 0 at byte offset 9: reading target delta: unexpected EOF"},
		{"\x02\x05\x02\x04\x03", "trace: record 1 at byte offset 11: reading block length: unexpected EOF"},
		{"\x02\x05\x02\x04\x03\x01\x7f\x01", "trace: record 2 at byte offset 14: truncated stream: unexpected EOF"},
	}
	for _, tc := range cases {
		data := []byte(hdr + tc.body)
		for _, r := range []struct {
			name string
			r    io.Reader
		}{
			{"bytes", bytes.NewReader(data)},
			{"one-byte", iotest.OneByteReader(bytes.NewReader(data))},
		} {
			d, err := NewDecoder(r.r)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeAll(d); err == nil || err.Error() != tc.want {
				t.Errorf("%x over %s reads: %v\nwant %s", tc.body, r.name, err, tc.want)
			} else if !errors.Is(err, io.ErrUnexpectedEOF) && bytes.Contains([]byte(tc.want), []byte("EOF")) {
				t.Errorf("%x over %s: %v is not io.ErrUnexpectedEOF", tc.body, r.name, err)
			}
		}
		if _, err := ParseRecordLog(data); err == nil || err.Error() != tc.want {
			t.Errorf("%x parses to: %v\nwant %s", tc.body, err, tc.want)
		}
	}
	// A read error mid-record surfaces as itself, not as a truncation.
	boom := errors.New("boom")
	d, err := NewDecoder(io.MultiReader(bytes.NewReader([]byte(hdr+"\x02\x05")), iotest.ErrReader(boom)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAll(d); !errors.Is(err, boom) {
		t.Errorf("read error mid-record reads as %v, want %v", err, boom)
	}
}

// FuzzRecordLogMatchesDecoder holds the three PDT1 readers to one codec:
// ParseRecordLog, the Decoder over whole reads and the Decoder over
// one-byte reads (which gives it the shortest buffered windows) accept the
// same inputs, yield the same records and fail with the same error, at the
// same record index and byte offset. An accepted log streams exactly what
// Write makes of its records.
func FuzzRecordLogMatchesDecoder(f *testing.F) {
	for _, n := range []int{0, 1, 2, 300} {
		valid := writeStream(f, "seed", makeTrace(n).Records)
		f.Add(valid)
		f.Add(valid[:len(valid)-1])                      // missing trailer
		f.Add(append(valid, 0x02, 0x05, 0x02))           // bytes after the trailer
		f.Add(append([]byte{}, valid[:len(valid)/2]...)) // cut mid-stream
	}
	f.Add([]byte{})
	f.Add([]byte("PDT1"))
	f.Add([]byte("PDT1\x01x\x02\x85\x00\x02\x04\xff"))                             // padded block length
	f.Add([]byte("PDT1\x01x\x02\x05\x80\x80"))                                     // record cut mid-varint
	f.Add([]byte("PDT1\x01x\x02\x05\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00\xff")) // PC delta past 57 bits
	r := rng.New(31)
	for i := 0; i < 8; i++ {
		seed := []byte("PDT1\x01x")
		for j, n := 0, r.Intn(48); j < n; j++ {
			seed = append(seed, byte(r.Uint32()))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		read := func(r io.Reader) (string, []isa.Branch, error) {
			d, err := NewDecoder(r)
			if err != nil {
				return "", nil, err
			}
			recs, err := decodeAll(d)
			return d.Name(), recs, err
		}
		name, want, wantErr := read(bytes.NewReader(data))
		_, one, oneErr := read(iotest.OneByteReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(one, want) || errText(oneErr) != errText(wantErr) {
			t.Fatalf("one-byte reads: %d records, err %v; whole reads: %d records, err %v",
				len(one), oneErr, len(want), wantErr)
		}
		l, err := ParseRecordLog(data)
		if errText(err) != errText(wantErr) {
			t.Fatalf("ParseRecordLog err %v; Decoder err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		got, err := decodeAll(l.Open())
		if err != nil || l.Len() != len(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("log yields %d records (Len %d), err %v; Decoder yields %d", len(got), l.Len(), err, len(want))
		}
		if !bytes.Equal(l.Stream(name), writeStream(t, name, want)) {
			t.Fatalf("log stream differs from Write of its records:\n got %x\nwant %x",
				l.Stream(name), writeStream(t, name, want))
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
