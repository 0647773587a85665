package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/isa"
)

func sampleTrace() *Memory {
	return &Memory{
		TraceName: "sample",
		Records: []isa.Branch{
			{PC: addr.Build(1, 2, 0x100), Target: addr.Build(1, 2, 0x40), BlockLen: 5, Kind: isa.CondDirect, Taken: true},
			{PC: addr.Build(1, 2, 0x44), Target: addr.Build(2, 0, 0x10), BlockLen: 2, Kind: isa.DirectCall, Taken: true},
			{PC: addr.Build(2, 0, 0x20), Target: addr.Build(1, 2, 0x48), BlockLen: 5, Kind: isa.Return, Taken: true},
			{PC: addr.Build(1, 2, 0x60), Target: addr.Build(1, 2, 0x100), BlockLen: 7, Kind: isa.CondDirect, Taken: false},
		},
	}
}

func TestMemoryReplay(t *testing.T) {
	m := sampleTrace()
	r1, _ := Collect("a", m.Open())
	r2, _ := Collect("b", m.Open())
	if !reflect.DeepEqual(r1.Records, r2.Records) {
		t.Error("two reads of a Memory source differ")
	}
	if !reflect.DeepEqual(r1.Records, m.Records) {
		t.Error("collected records differ from source")
	}
}

func TestInstructions(t *testing.T) {
	if got := sampleTrace().Instructions(); got != 19 {
		t.Errorf("Instructions = %d, want 19", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name() != "sample" {
		t.Errorf("decoded name = %q", dec.Name())
	}
	got, err := Collect(dec.Name(), dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, m.Records) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got.Records, m.Records)
	}
}

// Property: the codec round-trips arbitrary well-formed records.
func TestCodecRoundTripQuick(t *testing.T) {
	f := func(raws []struct {
		PC, Target uint64
		BlockLen   uint16
		Kind       uint8
		Taken      bool
	}) bool {
		recs := make([]isa.Branch, 0, len(raws))
		for _, r := range raws {
			k := isa.Kind(r.Kind % isa.NumKinds)
			taken := r.Taken || !k.IsConditional()
			bl := r.BlockLen
			if bl == 0 {
				bl = 1
			}
			recs = append(recs, isa.Branch{
				PC:       addr.New(r.PC),
				Target:   addr.New(r.Target),
				BlockLen: bl,
				Kind:     k,
				Taken:    taken,
			})
		}
		m := &Memory{TraceName: "q", Records: recs}
		var buf bytes.Buffer
		if err := Write(&buf, m.TraceName, m.Open()); err != nil {
			return false
		}
		dec, err := NewDecoder(&buf)
		if err != nil {
			return false
		}
		got, err := Collect("q", dec)
		if err != nil {
			return false
		}
		if len(got.Records) != len(recs) {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("NOPE....."))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewDecoder(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestDecoderTruncated(t *testing.T) {
	m := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	dec, err := NewDecoder(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := dec.Next()
		if errors.Is(err, io.EOF) {
			t.Fatal("truncated stream reached clean EOF")
		}
		if err != nil {
			return // got a decode error, as desired
		}
	}
}

func TestCompactEncoding(t *testing.T) {
	// A hot loop should encode in only a few bytes per record.
	recs := make([]isa.Branch, 1000)
	pc := addr.Build(1, 1, 0x80)
	for i := range recs {
		recs[i] = isa.Branch{PC: pc, Target: pc.Add(^uint64(63)), BlockLen: 8, Kind: isa.CondDirect, Taken: true}
	}
	m := &Memory{TraceName: "loop", Records: recs}
	var buf bytes.Buffer
	if err := Write(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(len(recs))
	if perRecord > 16 {
		t.Errorf("loop trace uses %.1f bytes/record, want ≤ 16", perRecord)
	}
}
