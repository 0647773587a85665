package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/rng"
)

// FuzzDecoder drives NewDecoder/Decoder.Next with arbitrary bytes: the
// decoder must never panic, and every non-EOF failure must carry a
// descriptive message. Seeds cover a fully valid encoding, truncations of
// it, header-only inputs and the random-tail corpus style of
// robustness_test.go.
func FuzzDecoder(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, "sample", sampleTrace().Open()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1]) // missing trailer
	f.Add(valid.Bytes()[:7])             // cut inside the header
	f.Add([]byte{})
	f.Add([]byte("PDT1"))
	f.Add([]byte("PDT1\x01x\xff"))             // empty named stream
	f.Add([]byte("PDT1\x01x\x02\x05\x80\x80")) // record cut mid-varint
	f.Add([]byte("QQT1\x01x\xff"))             // bad magic
	r := rng.New(99)
	for i := 0; i < 8; i++ {
		seed := []byte("PDT1\x01x")
		n := r.Intn(64)
		for j := 0; j < n; j++ {
			seed = append(seed, byte(r.Uint32()))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			if err.Error() == "" {
				t.Error("NewDecoder returned an empty error")
			}
			return
		}
		for {
			_, err := dec.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				if err.Error() == "" {
					t.Error("Next returned an empty error")
				}
				dec.Next() // calling again after an error must not crash
				return
			}
		}
	})
}

// FuzzPdtzRoundTrip drives the v2 container with arbitrary bytes. Parsing
// and decoding must never panic and must fail with positioned messages; any
// input that parses AND decodes cleanly must survive a decode -> re-encode
// -> re-decode round trip with an identical record stream. Seeds cover
// valid encodings at several sizes plus the corruption styles the decoder's
// fault paths guard against.
func FuzzPdtzRoundTrip(f *testing.F) {
	for _, n := range []int{0, 1, 700, 5000} {
		var valid bytes.Buffer
		if err := WritePdtz(&valid, "seed", makeTrace(n).Open()); err != nil {
			f.Fatal(err)
		}
		f.Add(valid.Bytes())
		f.Add(valid.Bytes()[:valid.Len()-1])          // missing footer byte
		f.Add(valid.Bytes()[:valid.Len()/2])          // cut mid-payload
		f.Add(append([]byte{}, valid.Bytes()[4:]...)) // magic stripped
	}
	f.Add([]byte("PDTZ"))
	f.Add([]byte("PDTZ\x02\x04seedZEND"))
	r := rng.New(7)
	for i := 0; i < 8; i++ {
		seed := []byte("PDTZ\x02\x01x")
		n := r.Intn(96)
		for j := 0; j < n; j++ {
			seed = append(seed, byte(r.Uint32()))
		}
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		z, err := ParsePdtz(data)
		if err != nil {
			if err.Error() == "" {
				t.Error("ParsePdtz returned an empty error")
			}
			return
		}
		// Decode everything. Corrupt payloads must fail with a message;
		// a failed batch must not crash subsequent calls.
		var recs []isa.Branch
		br := z.Open().(*BlockReader)
		buf := make([]isa.Branch, 512)
		for {
			n, err := br.NextBatch(buf)
			recs = append(recs, buf[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				if err.Error() == "" {
					t.Error("NextBatch returned an empty error")
				}
				br.NextBatch(buf) // must not panic after an error
				return
			}
		}
		// Clean decode: re-encode and re-decode must reproduce the stream.
		var again bytes.Buffer
		if err := WritePdtz(&again, z.Name(), z.Open()); err != nil {
			t.Fatalf("re-encode of a cleanly decoded trace failed: %v", err)
		}
		z2, err := ParsePdtz(again.Bytes())
		if err != nil {
			t.Fatalf("re-parse of a re-encoded trace failed: %v", err)
		}
		m2, err := Collect("x", z2.Open())
		if err != nil {
			t.Fatalf("re-decode of a re-encoded trace failed: %v", err)
		}
		if len(m2.Records) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(m2.Records))
		}
		for i := range recs {
			if m2.Records[i] != recs[i] {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, recs[i], m2.Records[i])
			}
		}
	})
}

// FuzzBatchDecoder holds the batch decoder to the checked one on arbitrary
// record bytes, the reference check of the loop every reader of either
// container runs: every record decodeBatch returns, decodeRecord returns
// identically and with the same length, and where decodeBatch stops with at
// least maxRecordLen bytes left, decodeRecord fails or hits the trailer.
func FuzzBatchDecoder(f *testing.F) {
	pad := make([]byte, maxRecordLen)
	far := uint64(1) << 40
	wide := make([]isa.Branch, 40)
	for i := range wide {
		base := addr.New(far * uint64(i%5))
		wide[i] = isa.Branch{
			PC: base.Add(uint64(i) << 9), Target: base.Add(far + uint64(i)),
			BlockLen: uint16(1 + i*1601), Kind: isa.IndirectJump, Taken: true,
		}
	}
	for _, recs := range [][]isa.Branch{makeTrace(1).Records, makeTrace(300).Records, wide} {
		var l RecordLog
		l.Append(recs)
		f.Add(l.data, uint64(0))
		f.Add(append(append([]byte{}, l.data...), pad...), uint64(0))
		f.Add(append(append([]byte{}, l.data...), endOfStream), uint64(recs[0].PC))
		f.Add(append([]byte{}, l.data[:len(l.data)/2]...), uint64(addr.Mask))
	}
	f.Add(append([]byte("\x02\x85\x00\x02\x04"), pad...), uint64(0))                                     // padded block length
	f.Add(append([]byte("\x02\x05\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00"), pad...), uint64(0))     // 10-byte pc delta
	f.Add(append([]byte("\x02\x05\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02"), pad...), uint64(0))     // target delta overflows
	f.Add(append([]byte("\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00"), pad...), uint64(0)) // block length overflows
	f.Add(append([]byte("\x02\x05\x02\x04\x0e\x05\x02\x04\xff"), pad...), uint64(0))                     // bad kind mid-stream
	r := rng.New(53)
	for i := 0; i < 8; i++ {
		seed := make([]byte, r.Intn(96))
		for j := range seed {
			seed[j] = byte(r.Uint32())
		}
		f.Add(seed, r.Uint64())
	}

	f.Fuzz(func(t *testing.T, data []byte, prev uint64) {
		prevPC := addr.New(prev)
		buf := make([]isa.Branch, len(data)/minRecordBytes+1) // never the limit
		n, used := decodeBatch(buf, data, prevPC)
		off, pc := 0, prevPC
		for i, got := range buf[:n] {
			var want isa.Branch
			m, field, err := decodeRecord(&want, data[off:], pc)
			if err != nil || got != want {
				t.Fatalf("record %d at byte %d: batch decoder returns %+v; decodeRecord %+v, %s: %v", i, off, got, want, field, err)
			}
			off += m
			pc = want.PC
		}
		if off != used {
			t.Fatalf("batch decoder's %d records span %d bytes; decodeRecord's span %d", n, used, off)
		}
		if len(data)-used >= maxRecordLen {
			var b isa.Branch
			if m, _, err := decodeRecord(&b, data[used:], pc); err == nil {
				t.Fatalf("batch decoder stopped at byte %d, on a %d-byte record decodeRecord accepts: %+v", used, m, b)
			}
		}
	})
}
