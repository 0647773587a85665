package trace

import (
	"errors"
	"io"
	"testing"
	"time"
)

func TestFaultReaderPassThrough(t *testing.T) {
	m := sampleTrace()
	got, err := Collect("copy", &FaultReader{R: m.Open()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(m.Records) {
		t.Fatalf("pass-through yielded %d records, want %d", len(got.Records), len(m.Records))
	}
	for i := range got.Records {
		if got.Records[i] != m.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], m.Records[i])
		}
	}
}

func TestFaultReaderTruncate(t *testing.T) {
	m := sampleTrace()
	r := &FaultReader{R: m.Open(), Plan: FaultPlan{TruncateAt: 3}}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	_, err := r.Next()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFaultSourcePermanentTransient: FailAt fails every reader the source
// opens, not just the first.
func TestFaultSourcePermanentTransient(t *testing.T) {
	fs := &FaultSource{Src: sampleTrace(), Plan: FaultPlan{FailAt: 1}}
	for open := 1; open <= 4; open++ {
		if _, err := Collect("x", fs.Open()); !errors.Is(err, ErrInjected) {
			t.Fatalf("open %d: err = %v, want ErrInjected", open, err)
		}
	}
}

func TestFaultSourceLoopForever(t *testing.T) {
	fs := &FaultSource{Src: sampleTrace(), Plan: FaultPlan{LoopForever: true}}
	r := fs.Open()
	n := len(sampleTrace().Records)
	for i := 0; i < 5*n; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("looping reader ended at record %d: %v", i, err)
		}
	}
}

func TestFaultReaderPanicAt(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PanicAt did not panic")
		}
	}()
	r := &FaultReader{R: sampleTrace().Open(), Plan: FaultPlan{PanicAt: 1}}
	r.Next()
}

func TestFaultReaderStall(t *testing.T) {
	m := sampleTrace()
	const d = 30 * time.Millisecond
	r := &FaultReader{R: m.Open(), Plan: FaultPlan{StallAt: 2, StallFor: d}}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	b, err := r.Next()
	if err != nil {
		t.Fatalf("stalled record should still arrive: %v", err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("record 2 arrived after %v, want >= %v", elapsed, d)
	}
	if b != m.Records[1] {
		t.Fatalf("stall corrupted record: %+v vs %+v", b, m.Records[1])
	}
	// Stream content is unchanged: only latency was injected.
	got, err := Collect("rest", r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(m.Records)-2 {
		t.Fatalf("stall dropped records: got %d more, want %d", len(got.Records), len(m.Records)-2)
	}
}

func TestFaultReaderStallEvery(t *testing.T) {
	m := sampleTrace()
	const d = 10 * time.Millisecond
	plan := FaultPlan{StallAt: 1, StallEvery: 2, StallFor: d}
	// Records 1, 3, 5, ... stall; total latency ≥ ceil(n/2)·d.
	n := len(m.Records)
	start := time.Now()
	got, err := Collect("all", &FaultReader{R: m.Open(), Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != n {
		t.Fatalf("stall-every dropped records: %d vs %d", len(got.Records), n)
	}
	want := time.Duration((n+1)/2) * d
	if elapsed := time.Since(start); elapsed < want {
		t.Fatalf("stream completed in %v, want >= %v for %d stalls", elapsed, want, (n+1)/2)
	}
}

func TestFaultReaderStallDisabledWithoutDuration(t *testing.T) {
	// StallAt without StallFor must be a no-op, not a zero-length sleep
	// on a hot path position.
	m := sampleTrace()
	got, err := Collect("all", &FaultReader{R: m.Open(), Plan: FaultPlan{StallAt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(m.Records) {
		t.Fatalf("got %d records, want %d", len(got.Records), len(m.Records))
	}
}

func TestFaultReaderCleanEOF(t *testing.T) {
	m := sampleTrace()
	r := &FaultReader{R: m.Open(), Plan: FaultPlan{EOFAt: 3}}
	got, err := Collect("short", r)
	if err != nil {
		t.Fatalf("clean truncation must look like a normal end of stream: %v", err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("EOFAt 3 yielded %d records, want 2", len(got.Records))
	}
	for i := range got.Records {
		if got.Records[i] != m.Records[i] {
			t.Fatalf("record %d differs before the cut", i)
		}
	}
	// The end is sticky: reading past it never resumes the stream.
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("read past EOFAt = %v, want io.EOF", err)
	}
}
