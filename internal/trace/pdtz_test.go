package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/rng"
)

// collectAll drains a Reader through NextBatch with a small buffer, so the
// batch path (including block-boundary crossings) is what gets tested.
func collectAll(t *testing.T, r Reader) []isa.Branch {
	t.Helper()
	var out []isa.Branch
	buf := make([]isa.Branch, 7) // deliberately not a divisor of block sizes
	for {
		n, err := ReadBatch(r, buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
	}
}

func TestPdtzRoundTrip(t *testing.T) {
	m := sampleTrace()
	var buf bytes.Buffer
	if err := WritePdtz(&buf, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	z, err := ParsePdtz(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if z.Name() != "sample" {
		t.Errorf("name = %q", z.Name())
	}
	if z.Records() != uint64(len(m.Records)) {
		t.Errorf("Records = %d, want %d", z.Records(), len(m.Records))
	}
	got := collectAll(t, z.Open())
	if !reflect.DeepEqual(got, m.Records) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m.Records)
	}
}

func TestPdtzEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePdtz(&buf, "empty", (&Memory{TraceName: "empty"}).Open()); err != nil {
		t.Fatal(err)
	}
	z, err := ParsePdtz(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if z.Records() != 0 || len(z.blocks) != 0 {
		t.Errorf("empty trace: %d records, %d blocks", z.Records(), len(z.blocks))
	}
	if _, err := z.Open().Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty trace Next err = %v, want EOF", err)
	}
}

// makeTrace builds a deterministic multi-block trace with a mix of kinds.
func makeTrace(n int) *Memory {
	r := rng.New(7)
	recs := make([]isa.Branch, n)
	pc := addr.Build(3, 9, 0x40)
	for i := range recs {
		k := isa.Kind(r.Intn(int(isa.NumKinds)))
		taken := !k.IsConditional() || r.Intn(3) != 0
		recs[i] = isa.Branch{
			PC:       pc,
			Target:   pc.Add(uint64(r.Intn(1 << 14))),
			BlockLen: uint16(1 + r.Intn(30)),
			Kind:     k,
			Taken:    taken,
		}
		pc = pc.Add(uint64(4 * (1 + r.Intn(64))))
	}
	return &Memory{TraceName: "multi", Records: recs}
}

// Multi-block traces must round-trip across block boundaries, through both
// Next and NextBatch, and re-encode byte-identically.
func TestPdtzMultiBlock(t *testing.T) {
	m := makeTrace(10_000)
	var buf bytes.Buffer
	if err := writePdtzBlocks(&buf, m.TraceName, m.Open(), 512); err != nil {
		t.Fatal(err)
	}
	z, err := ParsePdtz(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := (10_000 + 511) / 512; len(z.blocks) != want {
		t.Errorf("%d blocks, want %d", len(z.blocks), want)
	}
	if got := collectAll(t, z.Open()); !reflect.DeepEqual(got, m.Records) {
		t.Fatal("batch path mismatch")
	}
	got, err := Collect("x", z.Open())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, m.Records) {
		t.Fatal("Next path mismatch")
	}
	// decode → re-encode is byte-identical (same block size).
	var again bytes.Buffer
	if err := writePdtzBlocks(&again, z.Name(), z.Open(), 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("re-encode is not byte-identical")
	}
}

// The ISSUE's adversarial delta cases: 0-delta repeats (the same PC over
// and over), >32-bit jumps (region-crossing deltas), and strictly
// descending PCs (negative deltas throughout). decode(encode(r)) == r for
// each.
func TestPdtzAdversarialDeltas(t *testing.T) {
	const far = uint64(1) << 40 // well past 32 bits, within the 57-bit VA
	cases := map[string][]isa.Branch{
		"zero-delta-repeats": func() []isa.Branch {
			pc := addr.Build(1, 1, 0x100)
			recs := make([]isa.Branch, 3000)
			for i := range recs {
				recs[i] = isa.Branch{PC: pc, Target: pc, BlockLen: 1, Kind: isa.UncondDirect, Taken: true}
			}
			return recs
		}(),
		"wide-jumps": func() []isa.Branch {
			recs := make([]isa.Branch, 3000)
			pc := addr.New(0x10)
			for i := range recs {
				t := pc.Add(far + uint64(i))
				recs[i] = isa.Branch{PC: pc, Target: t, BlockLen: 9, Kind: isa.IndirectJump, Taken: true}
				pc = t.Add(far * uint64(i%3))
			}
			return recs
		}(),
		"descending-pcs": func() []isa.Branch {
			recs := make([]isa.Branch, 3000)
			pc := addr.New(addr.Mask) // top of the address space, walking down
			for i := range recs {
				recs[i] = isa.Branch{PC: pc, Target: pc.Add(^uint64(0x1000) + 1), BlockLen: 2, Kind: isa.CondDirect, Taken: i%2 == 0}
				pc = addr.New(uint64(pc) - 0x40)
			}
			return recs
		}(),
		"extreme-alternation": func() []isa.Branch {
			lo, hi := addr.New(0), addr.New(addr.Mask)
			recs := make([]isa.Branch, 3000)
			for i := range recs {
				pc := lo
				if i%2 == 0 {
					pc = hi
				}
				recs[i] = isa.Branch{PC: pc, Target: hi, BlockLen: isa.MaxBlockLen, Kind: isa.DirectCall, Taken: true}
			}
			return recs
		}(),
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			m := &Memory{TraceName: name, Records: recs}
			var buf bytes.Buffer
			if err := writePdtzBlocks(&buf, name, m.Open(), 257); err != nil {
				t.Fatal(err)
			}
			z, err := ParsePdtz(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if got := collectAll(t, z.Open()); !reflect.DeepEqual(got, recs) {
				t.Error("decode(encode(r)) != r")
			}
			// And the two codecs agree with each other on the same records.
			var v1 bytes.Buffer
			if err := Write(&v1, name, m.Open()); err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(bytes.NewReader(v1.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			gotV1, err := Collect(name, dec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotV1.Records, recs) {
				t.Error("v1 codec disagrees on adversarial records")
			}
		})
	}
}

// Property: arbitrary well-formed records round-trip through the v2 codec,
// whatever the block size.
func TestPdtzRoundTripQuick(t *testing.T) {
	f := func(raws []struct {
		PC, Target uint64
		BlockLen   uint16
		Kind       uint8
		Taken      bool
	}, blockSeed uint8) bool {
		recs := make([]isa.Branch, 0, len(raws))
		for _, r := range raws {
			k := isa.Kind(r.Kind % isa.NumKinds)
			recs = append(recs, isa.Branch{
				PC:       addr.New(r.PC),
				Target:   addr.New(r.Target),
				BlockLen: isa.ClampBlockLen(uint64(r.BlockLen)),
				Kind:     k,
				Taken:    r.Taken || !k.IsConditional(),
			})
		}
		m := &Memory{TraceName: "q", Records: recs}
		var buf bytes.Buffer
		if err := writePdtzBlocks(&buf, "q", m.Open(), 1+int(blockSeed)%9); err != nil {
			return false
		}
		z, err := ParsePdtz(buf.Bytes())
		if err != nil {
			return false
		}
		got, err := Collect("q", z.Open())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Records, recs) ||
			(len(got.Records) == 0 && len(recs) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Corrupt payloads must produce positioned errors, never panics, and the
// records decoded before the corruption must still be delivered.
func TestPdtzCorruptPayload(t *testing.T) {
	m := makeTrace(600)
	var buf bytes.Buffer
	if err := writePdtzBlocks(&buf, m.TraceName, m.Open(), 512); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	z, err := ParsePdtz(data)
	if err != nil {
		t.Fatal(err)
	}
	// Smash a byte in the middle of block 0's payload (after the first few
	// records decode cleanly).
	blob := append([]byte(nil), data...)
	target := z.blocks[0].start + (z.blocks[0].end-z.blocks[0].start)/2
	blob[target] ^= 0xFF
	zc, err := ParsePdtz(blob)
	if err != nil {
		// Structural parse can also legitimately catch it; either way no panic.
		return
	}
	r := zc.Open().(*BlockReader)
	var n int
	var derr error
	b := make([]isa.Branch, 64)
	for {
		k, err := r.NextBatch(b)
		n += k
		if err != nil {
			derr = err
			break
		}
	}
	if errors.Is(derr, io.EOF) {
		// The flipped byte can decode to a different-but-valid stream; only
		// assert on the error shape when it errored.
		return
	}
	if !strings.Contains(derr.Error(), "byte offset") || !strings.Contains(derr.Error(), "record") {
		t.Errorf("corrupt decode error lacks position: %v", derr)
	}
}

func TestPdtzRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("PDT1"),
		[]byte("PDTZ"),
		[]byte("PDTZ\x02\x00ZEND"),
		bytes.Repeat([]byte{0xFF}, 64),
	} {
		if _, err := ParsePdtz(data); err == nil {
			t.Errorf("garbage %q accepted", data)
		}
	}
}

func TestOpenPdtzFile(t *testing.T) {
	m := makeTrace(2000)
	path := filepath.Join(t.TempDir(), "t.pdtz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePdtz(f, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	z, err := OpenPdtz(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectAll(t, z.Open()); !reflect.DeepEqual(got, m.Records) {
		t.Error("mmap-backed decode mismatch")
	}
	if err := z.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPdtz(filepath.Join(t.TempDir(), "missing.pdtz")); err == nil {
		t.Error("missing file accepted")
	}
}

// Two concurrent readers over one shared mapping must both see the exact
// stream. Run under -race (the trace package is in RACE_PKGS) this proves
// the shared-bytes contract: readers share data, never state.
func TestPdtzConcurrentReaders(t *testing.T) {
	m := makeTrace(20_000)
	path := filepath.Join(t.TempDir(), "c.pdtz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePdtz(f, m.TraceName, m.Open()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	z, err := OpenPdtz(path)
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()

	const readers = 4
	results := make([][]isa.Branch, readers)
	errs := make([]error, readers)
	done := make(chan int, readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer func() { done <- i }()
			r := z.Open()
			buf := make([]isa.Branch, 129)
			for {
				n, err := ReadBatch(r, buf)
				results[i] = append(results[i], buf[:n]...)
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		<-done
	}
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], m.Records) {
			t.Errorf("reader %d diverged from the source records", i)
		}
	}
}
