package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/trace"
)

// fuzzRecords is a small valid stream covering every branch kind, with
// same-page and cross-page targets.
func fuzzRecords() []isa.Branch {
	recs := make([]isa.Branch, 0, 16)
	pc := addr.VA(0x40_1000)
	for i := 0; i < 16; i++ {
		target := pc + addr.VA(0x40+i*8)
		if i%3 == 0 {
			target = pc + addr.VA(0x10_0000*(i+1))
		}
		recs = append(recs, isa.Branch{
			PC:       pc,
			Target:   target,
			BlockLen: uint16(1 + i%7),
			Kind:     isa.Kind(i % 5),
			Taken:    i%5 != 0 || i%2 == 0,
		})
		pc = target
	}
	return recs
}

// pdt1 encodes recs as the PDT1 stream named name.
func pdt1(name string, recs []isa.Branch) []byte {
	var l trace.RecordLog
	l.Append(recs)
	return l.Stream(name)
}

// logRecords decodes every record of a journal.
func logRecords(t *testing.T, l *trace.RecordLog) []isa.Branch {
	t.Helper()
	m, err := trace.Collect("journal", l.Open())
	if err != nil {
		t.Fatal(err)
	}
	return m.Records
}

func sameRecords(t *testing.T, got, want []isa.Branch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip: record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzDecodeBody drives the HTTP batch-body decoder with arbitrary bytes.
// It must never panic; a rejected body carries a reply, and an accepted one
// re-encodes as PDT1 and decodes back to the same records.
func FuzzDecodeBody(f *testing.F) {
	valid := pdt1("batch", fuzzRecords())
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // missing trailer
	f.Add(valid[:7])            // cut inside the header
	f.Add([]byte{})
	f.Add([]byte("PDT1\x01x\xff")) // well-formed but empty batch

	const max = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rep := decodeBody(bytes.NewReader(data), max)
		if rep != nil {
			if recs != nil || rep.status == 0 || rep.err == nil || rep.err.Code == "" {
				t.Fatalf("rejection returned records or an incomplete reply: %d records, %+v", len(recs), rep)
			}
			return
		}
		if len(recs) == 0 || len(recs) > max {
			t.Fatalf("accepted %d records, want 1..%d", len(recs), max)
		}
		back, rep := decodeBody(bytes.NewReader(pdt1("batch", recs)), max)
		if rep != nil {
			t.Fatalf("re-encoded batch rejected: %+v", rep.err)
		}
		sameRecords(t, back, recs)
	})
}

// TestDecodeBodyBounds pins decodeBody's replies at its record cap, with
// the cap below the slice it first sizes and past it, where the slice
// grows: a body of exactly max records is accepted and one more is 413.
// An empty batch and a cut-off one are both 400s.
func TestDecodeBodyBounds(t *testing.T) {
	var recs []isa.Branch
	for len(recs) <= 2*bodyRecords+1 {
		recs = append(recs, fuzzRecords()...)
	}
	for _, max := range []int{1, 16, bodyRecords, bodyRecords + 1, 2 * bodyRecords} {
		got, rep := decodeBody(bytes.NewReader(pdt1("batch", recs[:max])), max)
		if rep != nil {
			t.Fatalf("max %d: a batch of %d records rejected: %+v", max, max, rep.err)
		}
		sameRecords(t, got, recs[:max])
		_, rep = decodeBody(bytes.NewReader(pdt1("batch", recs[:max+1])), max)
		if rep == nil || rep.status != http.StatusRequestEntityTooLarge || rep.err.Code != CodeTooLarge {
			t.Errorf("max %d: a batch of %d records got %+v, want 413 %s", max, max+1, rep, CodeTooLarge)
		}
	}
	body := pdt1("batch", recs[:bodyRecords])
	for _, tc := range []struct {
		name string
		body []byte
		code string
	}{
		{"empty", pdt1("batch", nil), CodeBadRequest},
		{"cut off", body[:len(body)/2], CodeTruncated},
	} {
		_, rep := decodeBody(bytes.NewReader(tc.body), bodyRecords)
		if rep == nil || rep.status != http.StatusBadRequest || rep.err.Code != tc.code {
			t.Errorf("%s batch got %+v, want 400 %s", tc.name, rep, tc.code)
		}
	}
}

// FuzzDecodeCheckpoint drives the checkpoint-file decoder with arbitrary
// bytes. It must never panic; an accepted checkpoint re-encodes (journal
// and document) and decodes back to the same header and records.
func FuzzDecodeCheckpoint(f *testing.F) {
	const digest, tenant = "cfg-digest", "alpha"
	journal := pdt1(tenant, fuzzRecords())
	valid, err := json.Marshal(checkpointFile{
		Version:      checkpointVersion,
		ConfigDigest: digest,
		Tenant:       tenant,
		NextSeq:      3,
		Crashes:      1,
		ResultDigest: "abc",
		Records:      journal,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"next_seq":3`), []byte(`"next_seq":0`), 1))
	f.Add(bytes.Replace(valid, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, journal, err := decodeCheckpoint(data, digest, tenant)
		if err != nil {
			if ck != nil || journal != nil || err.Error() == "" {
				t.Fatalf("rejection returned state or an empty error: %v", err)
			}
			return
		}
		again := *ck
		again.Records = journal.Stream(tenant)
		doc, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		ck2, back, err := decodeCheckpoint(doc, digest, tenant)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		ck2.Records, again.Records = nil, nil
		if !reflect.DeepEqual(*ck2, again) {
			t.Fatalf("checkpoint header changed in round trip: %+v, want %+v", *ck2, again)
		}
		sameRecords(t, logRecords(t, back), logRecords(t, journal))
	})
}
