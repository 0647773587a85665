package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/isa"
)

// Binary trace format ("PDT1"):
//
//	header:  magic "PDT1", uvarint name length, name bytes
//	records: per record —
//	    byte   flags: bit0 taken, bits1-3 kind
//	    uvarint blockLen
//	    varint  pcDelta      (signed delta from previous record's PC)
//	    varint  targetDelta  (signed delta from this record's PC)
//	trailer: flags byte 0xFF marks end of stream
//
// Delta encoding keeps hot loops to a few bytes per record: branch PCs
// revisit a small working set and targets are usually near their branch.
//
// The v2 format ("PDTZ", pdtz.go) groups the same records into
// independently decodable blocks with a seekable index, decoded zero-copy
// out of a single mapping. This file is the only code that knows a
// record's bytes: appendRecord encodes one for both containers and the
// serve journal, and decodeRecords decodes them, through the batch decoder
// and the checked decoder.
const magic = "PDT1"

const (
	flagTaken   = 0x01
	kindShift   = 1
	endOfStream = 0xFF
)

// countingWriter tracks how many bytes reached the underlying writer, so
// write-path errors can report where in the output stream they happened.
type countingWriter struct {
	w   io.Writer
	off int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.off += int64(n)
	return n, err
}

// maxRecordLen bounds one record's encoding: the flags byte and three
// varints. A longer block-length varint is an overflow error.
const maxRecordLen = 1 + 3*binary.MaxVarintLen64

// appendHeader appends the stream header for name to dst.
func appendHeader(dst []byte, name string) []byte {
	dst = append(dst, magic...)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// appendRecord appends b's encoding to dst. prevPC is the PC of the record
// before b in the stream, 0 for the first.
func appendRecord(dst []byte, b isa.Branch, prevPC addr.VA) []byte {
	flags := byte(b.Kind) << kindShift
	if b.Taken {
		flags |= flagTaken
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(b.BlockLen))
	dst = binary.AppendVarint(dst, int64(b.PC)-int64(prevPC))
	return binary.AppendVarint(dst, int64(b.Target)-int64(b.PC))
}

// Write encodes a full trace to w. Errors — from the source reader or from
// short writes to w — are annotated with the 0-based record index and the
// byte offset already flushed to w, so a partial file can be located and
// truncated precisely.
func Write(w io.Writer, name string, r Reader) error {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	wpos := func(rec int64) string {
		return fmt.Sprintf("record %d (flushed through byte %d)", rec, cw.off)
	}
	if _, err := bw.Write(appendHeader(nil, name)); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	var buf [maxRecordLen]byte
	var prevPC addr.VA
	for rec := int64(0); ; rec++ {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("trace: reading %s from source: %w", wpos(rec), err)
		}
		if _, err := bw.Write(appendRecord(buf[:0], b, prevPC)); err != nil {
			return fmt.Errorf("trace: writing %s: %w", wpos(rec), err)
		}
		prevPC = b.PC
	}
	if err := bw.WriteByte(endOfStream); err != nil {
		return fmt.Errorf("trace: writing end-of-stream marker: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing (%d bytes written): %w", cw.off, err)
	}
	return nil
}

// errVarintOverflow is what binary.ReadUvarint reports for a varint longer
// than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint decodes the unsigned varint at the front of p as
// binary.ReadUvarint reads it from a stream: n is the bytes that reader
// consumes, also on failure. A p that ends mid-varint fails with
// io.ErrUnexpectedEOF.
func uvarint(p []byte) (x uint64, n int, err error) {
	x, n = binary.Uvarint(p)
	switch {
	case n > 0:
		return x, n, nil
	case n == 0 && len(p) < binary.MaxVarintLen64:
		return 0, len(p), io.ErrUnexpectedEOF
	}
	return 0, binary.MaxVarintLen64, errVarintOverflow
}

// varint is uvarint for a zig-zag signed varint.
func varint(p []byte) (int64, int, error) {
	ux, n, err := uvarint(p)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, n, err
}

// decodeBatch is the batch decoder: it decodes records from the front of p
// into buf, given the PC of the record before them, and returns how many
// it decoded and the bytes they span. It takes a record only while at
// least maxRecordLen bytes of p are left, so no field read can run past
// p's end, and it stops at the trailer and at any record that fails a
// check. It accepts exactly what decodeRecord accepts, which decodes or
// reports the record it stopped at (decodeRecords). It must not allocate.
func decodeBatch(buf []isa.Branch, p []byte, prevPC addr.VA) (n, used int) {
	pos := 0
	prev := int64(prevPC)
	for ; n < len(buf) && pos+maxRecordLen <= len(p); n++ {
		flags := p[pos]
		kind := isa.Kind(flags >> kindShift)
		if kind >= isa.NumKinds { // the trailer's kind is out of range too
			return n, pos
		}
		// Delta varint lengths flip record to record (a near target is
		// 1-2 bytes, a cross-page jump 3+), so a byte-at-a-time loop eats
		// a branch mispredict per field. The ≤3-byte case — all but a few
		// percent of records — decodes branchlessly from one 32-bit load:
		// length from the first clear continuation bit, payload bits
		// gathered with masks, truncated by length. Longer varints take
		// the byte loop here, in line, so a record with a far delta (one
		// in eleven on the oltp capture) does not leave the loop.
		q := pos + 1
		blockLen := uint64(p[q])
		q++
		if blockLen > 0x7f {
			blockLen &= 0x7f
			for s := uint(7); ; s += 7 {
				if s > 63 {
					return n, pos
				}
				b := p[q]
				q++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return n, pos
					}
					blockLen |= uint64(b) << s
					break
				}
				blockLen |= uint64(b&0x7f) << s
			}
		}
		if blockLen == 0 || blockLen > isa.MaxBlockLen {
			return n, pos
		}
		w32 := binary.LittleEndian.Uint32(p[q:])
		var upc uint64
		if w32&0x808080 != 0x808080 {
			l := (bits.TrailingZeros32(^w32&0x808080) + 1) >> 3
			e := w32&0x7f | (w32&0x7f00)>>1 | (w32&0x7f0000)>>2
			upc = uint64(e) & (1<<(7*uint(l)) - 1)
			q += l
		} else {
			upc = uint64(w32) & 0x7f
			q++
			for s := uint(7); ; s += 7 {
				if s > 63 {
					return n, pos
				}
				b := p[q]
				q++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return n, pos
					}
					upc |= uint64(b) << s
					break
				}
				upc |= uint64(b&0x7f) << s
			}
		}
		pcDelta := int64(upc>>1) ^ -int64(upc&1)
		w32 = binary.LittleEndian.Uint32(p[q:])
		var utd uint64
		if w32&0x808080 != 0x808080 {
			l := (bits.TrailingZeros32(^w32&0x808080) + 1) >> 3
			e := w32&0x7f | (w32&0x7f00)>>1 | (w32&0x7f0000)>>2
			utd = uint64(e) & (1<<(7*uint(l)) - 1)
			q += l
		} else {
			utd = uint64(w32) & 0x7f
			q++
			for s := uint(7); ; s += 7 {
				if s > 63 {
					return n, pos
				}
				b := p[q]
				q++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return n, pos
					}
					utd |= uint64(b) << s
					break
				}
				utd |= uint64(b&0x7f) << s
			}
		}
		targetDelta := int64(utd>>1) ^ -int64(utd&1)
		pos = q
		pc := addr.New(uint64(prev + pcDelta))
		buf[n] = isa.Branch{
			PC:       pc,
			Target:   addr.New(uint64(int64(pc) + targetDelta)),
			BlockLen: uint16(blockLen),
			Kind:     kind,
			Taken:    flags&flagTaken != 0,
		}
		prev = int64(pc)
	}
	return n, pos
}

// decodeRecords fills buf from the front of p, given the PC of the record
// before it: the batch decoder takes what it can, and decodeRecord each
// record it stops at. When more of the stream may follow p (final false),
// it returns instead where fewer than maxRecordLen bytes are left, so the
// caller can refill p first. It returns the records decoded and the bytes
// consumed; when decodeRecord stops it, those bytes include the ones the
// stopping record took, and field and err are decodeRecord's (io.EOF at the
// trailer). Every reader of either container decodes through here.
func decodeRecords(buf []isa.Branch, p []byte, prevPC addr.VA, final bool) (n, used int, field string, err error) {
	for n < len(buf) {
		k, m := decodeBatch(buf[n:], p[used:], prevPC)
		n, used = n+k, used+m
		if k > 0 {
			prevPC = buf[n-1].PC
		}
		if n == len(buf) || !final && len(p)-used < maxRecordLen {
			break
		}
		m, field, err = decodeRecord(&buf[n], p[used:], prevPC)
		used += m
		if err != nil {
			return n, used, field, err
		}
		prevPC = buf[n].PC
		n++
	}
	return n, used, "", nil
}

// decodeRecord is the checked decoder: it decodes the record at the front
// of p into b, given the PC of the record before it, and returns the bytes
// it spans. The end-of-stream trailer returns io.EOF and spans one byte. A
// failure names the field it hit, leaves b as it was and returns the bytes
// a byte-at-a-time reader consumes before failing; a p that ends
// mid-record fails with io.ErrUnexpectedEOF.
func decodeRecord(b *isa.Branch, p []byte, prevPC addr.VA) (n int, field string, err error) {
	if len(p) == 0 {
		return 0, "truncated stream", io.ErrUnexpectedEOF
	}
	flags := p[0]
	if flags == endOfStream {
		return 1, "", io.EOF
	}
	kind := isa.Kind(flags >> kindShift)
	if kind >= isa.NumKinds {
		return 1, "invalid kind", fmt.Errorf("kind %d", kind)
	}
	n = 1
	blockLen, w, err := uvarint(p[n:])
	n += w
	if err != nil {
		return n, "reading block length", err
	}
	if blockLen == 0 || blockLen > isa.MaxBlockLen {
		return n, "invalid block length", fmt.Errorf("length %d", blockLen)
	}
	pcDelta, w, err := varint(p[n:])
	n += w
	if err != nil {
		return n, "reading pc delta", err
	}
	targetDelta, w, err := varint(p[n:])
	n += w
	if err != nil {
		return n, "reading target delta", err
	}
	pc := addr.New(uint64(int64(prevPC) + pcDelta))
	*b = isa.Branch{
		PC:       pc,
		Target:   addr.New(uint64(int64(pc) + targetDelta)),
		BlockLen: uint16(blockLen),
		Kind:     kind,
		Taken:    flags&flagTaken != 0,
	}
	return n, "", nil
}

// recordError annotates a decode failure of record rec, with off the byte
// offset the failure left the stream at, so a truncated upload or a
// corrupt file can be diagnosed (and resumed) precisely instead of
// surfacing as a bare unexpected-EOF. A mid-record EOF reads as
// io.ErrUnexpectedEOF, so a truncated stream is never mistaken for a
// clean end of trace. pkg names the container: "trace" or "pdtz".
func recordError(pkg string, rec, off int64, field string, err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%s: record %d at byte offset %d: %s: %w", pkg, rec, off, field, err)
}

// countingByteReader counts the header bytes NewDecoder consumes, so the
// Decoder's offsets start where its first record does.
type countingByteReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingByteReader) readFull(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.off += int64(n)
	return err
}

// Decoder reads the binary trace format. It implements Reader.
type Decoder struct {
	br *bufio.Reader
	// win is br's buffered window: next decodes from win[used:], and
	// discards the used bytes from br when it refills win.
	win  []byte
	used int
	// perr is why win ends short of a whole record, when it does; the
	// Decoder reads no further after a failed read.
	perr error

	off    int64 // bytes consumed from the stream
	name   string
	prevPC addr.VA
	rec    int64 // 0-based index of the record Next will decode
	done   bool
}

// NewDecoder validates the header and returns a Decoder positioned at the
// first record. It reads through a 4 KiB bufio.Reader, or through r as it
// is when r is a *bufio.Reader of at least that size.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := &countingByteReader{br: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	if err := br.readFull(head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if err := br.readFull(name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	return &Decoder{br: br.br, off: br.off, name: string(name)}, nil
}

// Name returns the trace name from the header.
func (d *Decoder) Name() string { return d.name }

// Offset returns the number of bytes consumed from the underlying stream.
func (d *Decoder) Offset() int64 { return d.off }

// Next implements Reader: a batch of one record.
func (d *Decoder) Next() (isa.Branch, error) {
	var one [1]isa.Branch
	if _, err := d.NextBatch(one[:]); err != nil {
		return isa.Branch{}, err
	}
	return one[0], nil
}

// NextBatch implements BatchReader: it decodes records straight into buf,
// out of the buffered reader's window. It refills the window whenever less
// than the longest record's length is left in it, unless the stream has
// ended (or failed); over a live pipe, a record therefore returns once the
// stream has reached that length past its start. Decoded records preceding
// an error are returned alongside it; the error carries the failing
// record's index and byte offset (see recordError).
func (d *Decoder) NextBatch(buf []isa.Branch) (int, error) {
	n := 0
	for n < len(buf) {
		if d.done {
			return n, io.EOF
		}
		if len(d.win)-d.used < maxRecordLen && d.perr == nil {
			d.br.Discard(d.used)
			d.used = 0
			_, d.perr = d.br.Peek(maxRecordLen)
			d.win, _ = d.br.Peek(d.br.Buffered())
		}
		k, used, field, err := decodeRecords(buf[n:], d.win[d.used:], d.prevPC, d.perr != nil)
		n += k
		d.used += used
		d.off += int64(used)
		d.rec += int64(k)
		if k > 0 {
			d.prevPC = buf[n-1].PC
		}
		if err == io.EOF {
			d.done = true
			return n, io.EOF
		}
		if err != nil {
			if err == io.ErrUnexpectedEOF && d.perr != nil {
				err = d.perr // the window ended where the stream did
			}
			return n, recordError("trace", d.rec, d.off, field, err)
		}
	}
	return n, nil
}
