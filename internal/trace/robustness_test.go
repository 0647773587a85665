package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// The decoder must never panic on arbitrary input: it either errors or
// terminates cleanly, regardless of what bytes it is fed.
func TestDecoderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return true // rejected at header: fine
		}
		for i := 0; i < 10000; i++ {
			if _, err := dec.Next(); err != nil {
				return true
			}
		}
		return true // absurdly long but valid stream: also fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Same with a valid header followed by random record bytes.
func TestDecoderNeverPanicsWithValidHeader(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 300; trial++ {
		var buf bytes.Buffer
		buf.WriteString("PDT1")
		buf.WriteByte(1)
		buf.WriteByte('x')
		n := r.Intn(64)
		for i := 0; i < n; i++ {
			buf.WriteByte(byte(r.Uint32()))
		}
		dec, err := NewDecoder(&buf)
		if err != nil {
			t.Fatalf("valid header rejected: %v", err)
		}
		for i := 0; i < 100; i++ {
			if _, err := dec.Next(); err != nil {
				break
			}
		}
	}
}
