package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
	"repro/internal/isa"
)

// Binary trace format v2 ("PDTZ") — the paper-scale streaming codec.
//
// The v1 format (codec.go) is a single delta stream read front to back
// through a buffered reader; fine for tooling and serve batches, but a
// multi-gigabyte ingested trace replayed once per (app, design) cell wants
// no copy at all. v2 keeps the same records but arranges the file so a
// whole trace can be mapped read-only and decoded in batches straight out
// of the mapping, with no per-record allocation or interface dispatch:
//
//	file     := header block* sentinel index footer
//	header   := "PDTZ" version(0x02) uvarint(len(name)) name
//	block    := uvarint(payloadLen) payload            ; payloadLen > 0
//	payload  := uvarint(count) uvarint(basePC) record* ; count > 0
//	record   := flags uvarint(blockLen) varint(pcDelta) varint(targetDelta)
//	sentinel := uvarint(0)                             ; ends the block run
//	index    := uvarint(blockCount) entry*
//	entry    := uvarint(offsetDelta) uvarint(count)    ; offset of the block's
//	                                                   ; payloadLen field; the
//	                                                   ; first entry is absolute,
//	                                                   ; later ones delta-coded
//	footer   := uint64le(indexOffset) "ZEND"
//
// A record is exactly a v1 record (codec.go encodes and decodes both). Each
// block is independently decodable: basePC seeds the PC delta chain (the
// encoder stores the block's first PC there and a zero first delta), so
// readers can start at any index entry without replaying the prefix — which
// is also what lets several readers stream one shared mapping concurrently.
const (
	magicV2   = "PDTZ"
	versionV2 = 0x02
	footerV2  = "ZEND"

	// footerLen is the fixed tail: 8-byte little-endian index offset plus
	// the footer magic.
	footerLen = 8 + len(footerV2)

	// minRecordBytes bounds a v2 record from below (flags byte plus three
	// single-byte varints); index-declared record counts are validated
	// against it so a corrupt count cannot claim more records than the
	// payload could possibly hold.
	minRecordBytes = 4
)

// DefaultBlockRecords is the records-per-block target WritePdtz uses. 4K
// records ≈ 20-30 KB per block: big enough to amortize block transitions,
// small enough that an index seek lands near any record cheaply.
const DefaultBlockRecords = 4096

// WritePdtz encodes a full trace to w in the v2 block format with the
// default block size. Errors from the source reader or from short writes
// are annotated with the failing record index and the output byte offset
// already flushed.
func WritePdtz(w io.Writer, name string, r Reader) error {
	return writePdtzBlocks(w, name, r, DefaultBlockRecords)
}

// writePdtzBlocks is WritePdtz with blockRecords records per block.
func writePdtzBlocks(w io.Writer, name string, r Reader, blockRecords int) error {
	if len(name) > 1<<16 {
		return fmt.Errorf("pdtz: unreasonable name length %d", len(name))
	}
	cw := &countingWriter{w: w}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64, what string) error {
		n := binary.PutUvarint(scratch[:], v)
		if _, err := cw.Write(scratch[:n]); err != nil {
			return fmt.Errorf("pdtz: writing %s at byte offset %d: %w", what, cw.off, err)
		}
		return nil
	}

	if _, err := cw.Write([]byte(magicV2)); err != nil {
		return fmt.Errorf("pdtz: writing magic: %w", err)
	}
	if _, err := cw.Write([]byte{versionV2}); err != nil {
		return fmt.Errorf("pdtz: writing version: %w", err)
	}
	if err := writeUvarint(uint64(len(name)), "name length"); err != nil {
		return err
	}
	if _, err := io.WriteString(cw, name); err != nil {
		return fmt.Errorf("pdtz: writing name: %w", err)
	}

	type indexEntry struct {
		off   int64
		count int
	}
	var (
		index   []indexEntry
		payload []byte
		batch   = make([]isa.Branch, blockRecords)
		rec     int64 // global record index of the batch head
		srcEOF  bool
	)
	for !srcEOF {
		n, err := ReadBatch(r, batch)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return fmt.Errorf("pdtz: reading record %d from source: %w", rec+int64(n), err)
			}
			srcEOF = true
		}
		if n == 0 {
			break
		}
		// The block's first PC is the base of its delta chain, so its
		// first record's PC delta is zero.
		base := batch[0].PC
		payload = binary.AppendUvarint(payload[:0], uint64(n))
		payload = binary.AppendUvarint(payload, uint64(base))
		prev := base
		for _, b := range batch[:n] {
			payload = appendRecord(payload, b, prev)
			prev = b.PC
		}
		// Trailing zero padding lets the reader decode every record —
		// including the block's last — through the batch decoder, which
		// takes a record only while maxRecordLen bytes are left. Padding
		// bytes are covered by payloadLen and skipped by the record count.
		payload = append(payload, make([]byte, maxRecordLen)...)
		index = append(index, indexEntry{off: cw.off, count: n})
		if err := writeUvarint(uint64(len(payload)), fmt.Sprintf("block %d length", len(index)-1)); err != nil {
			return err
		}
		if _, err := cw.Write(payload); err != nil {
			return fmt.Errorf("pdtz: writing block %d (records %d..%d) at byte offset %d: %w",
				len(index)-1, rec, rec+int64(n)-1, cw.off, err)
		}
		rec += int64(n)
	}

	if err := writeUvarint(0, "block sentinel"); err != nil {
		return err
	}
	indexOff := cw.off
	if err := writeUvarint(uint64(len(index)), "index block count"); err != nil {
		return err
	}
	prevOff := int64(0)
	for i, e := range index {
		if err := writeUvarint(uint64(e.off-prevOff), fmt.Sprintf("index entry %d offset", i)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(e.count), fmt.Sprintf("index entry %d count", i)); err != nil {
			return err
		}
		prevOff = e.off
	}
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(indexOff))
	copy(foot[8:], footerV2)
	if _, err := cw.Write(foot[:]); err != nil {
		return fmt.Errorf("pdtz: writing footer at byte offset %d: %w", cw.off, err)
	}
	return nil
}

// zblock is the parsed index entry for one block.
type zblock struct {
	off     int64 // absolute offset of the block's payloadLen field
	start   int64 // absolute offset of the payload
	end     int64 // absolute offset one past the payload
	count   int   // records in the block, per the index
	firstAt int64 // global index of the block's first record
}

// Pdtz is a parsed v2 trace backed by a single read-only byte slice —
// typically an mmap of the file, so opening a paper-scale trace costs no
// read I/O up front and decoding streams pages in on demand. It implements
// Source; every Open returns an independent BlockReader over the shared
// bytes, so concurrent readers (the parallel suite runner's cells) need no
// locking. The parsed index never changes under those readers.
type Pdtz struct {
	data    []byte
	name    string
	blocks  []zblock
	records uint64
	unmap   func() error // non-nil when data is an mmap to release on Close
}

// ParsePdtz validates the header, footer and block index of data and
// returns a Pdtz reading from it. The per-record payload bytes are
// validated lazily during decode (with positioned errors), so parsing cost
// is proportional to the index, not the trace.
func ParsePdtz(data []byte) (*Pdtz, error) {
	o := 0
	if len(data) < len(magicV2)+1+footerLen {
		return nil, fmt.Errorf("pdtz: file too short (%d bytes)", len(data))
	}
	if string(data[:len(magicV2)]) != magicV2 {
		return nil, fmt.Errorf("pdtz: bad magic %q", data[:len(magicV2)])
	}
	o = len(magicV2)
	if data[o] != versionV2 {
		return nil, fmt.Errorf("pdtz: unsupported version %d", data[o])
	}
	o++
	nameLen, n := binary.Uvarint(data[o:])
	if n <= 0 || nameLen > 1<<16 {
		return nil, fmt.Errorf("pdtz: invalid name length at byte offset %d", o)
	}
	o += n
	if int64(o)+int64(nameLen) > int64(len(data)) {
		return nil, fmt.Errorf("pdtz: name overruns file at byte offset %d", o)
	}
	name := string(data[o : o+int(nameLen)])
	headerEnd := int64(o) + int64(nameLen)

	if string(data[len(data)-len(footerV2):]) != footerV2 {
		return nil, fmt.Errorf("pdtz: bad footer magic")
	}
	indexOff := int64(binary.LittleEndian.Uint64(data[len(data)-footerLen : len(data)-len(footerV2)]))
	if indexOff < headerEnd || indexOff >= int64(len(data)-footerLen) {
		return nil, fmt.Errorf("pdtz: index offset %d out of range", indexOff)
	}

	io64 := indexOff
	blockCount, n := binary.Uvarint(data[io64:])
	if n <= 0 || blockCount > uint64(len(data)) {
		return nil, fmt.Errorf("pdtz: invalid index block count at byte offset %d", io64)
	}
	io64 += int64(n)
	z := &Pdtz{data: data, name: name}
	z.blocks = make([]zblock, 0, blockCount)
	prevOff := int64(0)
	var firstAt int64
	for i := uint64(0); i < blockCount; i++ {
		offDelta, n := binary.Uvarint(data[io64:])
		if n <= 0 {
			return nil, fmt.Errorf("pdtz: index entry %d: invalid offset at byte offset %d", i, io64)
		}
		io64 += int64(n)
		count, n := binary.Uvarint(data[io64:])
		if n <= 0 || count == 0 || count > uint64(len(data)) {
			return nil, fmt.Errorf("pdtz: index entry %d: invalid record count at byte offset %d", i, io64)
		}
		io64 += int64(n)
		off := prevOff + int64(offDelta)
		if i == 0 {
			off = int64(offDelta)
			if off < headerEnd {
				return nil, fmt.Errorf("pdtz: index entry 0: offset %d inside header", off)
			}
		} else if offDelta == 0 {
			return nil, fmt.Errorf("pdtz: index entry %d: non-increasing offset %d", i, off)
		}
		if off >= indexOff {
			return nil, fmt.Errorf("pdtz: index entry %d: offset %d beyond index", i, off)
		}
		payloadLen, n := binary.Uvarint(data[off:])
		if n <= 0 || payloadLen == 0 {
			return nil, fmt.Errorf("pdtz: block %d: invalid payload length at byte offset %d", i, off)
		}
		start := off + int64(n)
		end := start + int64(payloadLen)
		if end > indexOff {
			return nil, fmt.Errorf("pdtz: block %d: payload overruns index (ends %d, index at %d)", i, end, indexOff)
		}
		if count > payloadLen/minRecordBytes+1 {
			return nil, fmt.Errorf("pdtz: block %d: %d records cannot fit in %d payload bytes", i, count, payloadLen)
		}
		z.blocks = append(z.blocks, zblock{off: off, start: start, end: end, count: int(count), firstAt: firstAt})
		firstAt += int64(count)
		prevOff = off
		z.records += count
	}
	return z, nil
}

// OpenPdtz memory-maps path and parses it as a v2 trace. Close releases the
// mapping; all BlockReaders must be drained before Close. On platforms
// without mmap support the file is read into memory instead.
func OpenPdtz(path string) (*Pdtz, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, fmt.Errorf("pdtz: %s: %w", path, err)
	}
	z, err := ParsePdtz(data)
	if err != nil {
		if unmap != nil {
			_ = unmap()
		}
		return nil, fmt.Errorf("pdtz: %s: %w", path, err)
	}
	z.unmap = unmap
	return z, nil
}

// Name implements Source.
func (z *Pdtz) Name() string { return z.name }

// Records returns the total record count, from the index.
func (z *Pdtz) Records() uint64 { return z.records }

// Open implements Source: each call returns an independent zero-copy reader
// over the shared backing bytes.
func (z *Pdtz) Open() Reader { return &BlockReader{z: z} }

// Close releases the mapping, if any. The Pdtz must not be used afterwards,
// so the teardown writes below never race a reader.
func (z *Pdtz) Close() error {
	z.data = nil
	z.blocks = nil
	if z.unmap != nil {
		u := z.unmap
		z.unmap = nil
		return u()
	}
	return nil
}

// BlockReader decodes a Pdtz sequentially. It implements Reader and
// BatchReader; NextBatch is the zero-copy hot path — records are
// reconstructed straight out of the backing bytes into the caller's batch
// buffer, no intermediate buffering, no per-record allocation. A BlockReader
// is single-goroutine state; open one per concurrent consumer (Open is
// cheap and the backing bytes are shared).
type BlockReader struct {
	z     *Pdtz
	block int // index of the next block to load

	payload   []byte  // current block's payload
	pos       int     // decode cursor within payload
	remaining int     // records left in the current block
	prev      addr.VA // previous record's PC (delta chain state)
	start     int64   // absolute file offset of payload[0], for errors
	rec       int64   // global index of the next record
}

// nextBlock advances to the next block, priming the delta chain from the
// block's basePC. Returns io.EOF past the last block.
func (r *BlockReader) nextBlock() error {
	if r.block >= len(r.z.blocks) {
		return io.EOF
	}
	b := r.z.blocks[r.block]
	payload := r.z.data[b.start:b.end]
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("pdtz: block %d at byte offset %d: invalid record count", r.block, b.start)
	}
	if int(count) != b.count {
		return fmt.Errorf("pdtz: block %d at byte offset %d: payload count %d != index count %d",
			r.block, b.start, count, b.count)
	}
	o := n
	basePC, n := binary.Uvarint(payload[o:])
	if n <= 0 {
		return fmt.Errorf("pdtz: block %d at byte offset %d: invalid base PC", r.block, b.start+int64(o))
	}
	o += n
	r.payload = payload
	r.pos = o
	r.remaining = b.count
	r.prev = addr.New(basePC)
	r.start = b.start
	r.rec = b.firstAt
	r.block++
	return nil
}

// NextBatch implements BatchReader. It fills buf with up to len(buf)
// records, crossing block boundaries as needed, and returns io.EOF (with
// any records decoded before it) at the clean end of the trace. A block's
// record count ends it: a corrupt record, the end of the payload or a
// trailer byte before the count fails with the record's index and the byte
// offset the failure left the file at.
func (r *BlockReader) NextBatch(buf []isa.Branch) (int, error) {
	n := 0
	for n < len(buf) {
		if r.remaining == 0 {
			if err := r.nextBlock(); err != nil {
				return n, err
			}
		}
		want := min(r.remaining, len(buf)-n)
		k, used, field, err := decodeRecords(buf[n:n+want], r.payload[r.pos:], r.prev, true)
		n += k
		r.pos += used
		r.remaining -= k
		r.rec += int64(k)
		if k > 0 {
			r.prev = buf[n-1].PC
		}
		if err != nil {
			if err == io.EOF {
				field = "end-of-stream marker inside a block"
			}
			return n, recordError("pdtz", r.rec, r.start+int64(r.pos), field, err)
		}
	}
	return n, nil
}

// Next implements Reader: a batch of one record. The one-record buffer
// must stay on the stack (NextBatch's buf parameter does not escape).
func (r *BlockReader) Next() (isa.Branch, error) {
	var one [1]isa.Branch
	n, err := r.NextBatch(one[:])
	if n == 1 {
		return one[0], nil
	}
	return isa.Branch{}, err
}
