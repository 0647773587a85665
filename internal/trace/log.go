package trace

import (
	"bytes"
	"encoding/binary"
	"io"

	"repro/internal/addr"
	"repro/internal/isa"
)

// RecordLog is an append-only, in-memory record sequence held in the PDT1
// encoding: the records of a PDT1 stream without its header and trailer.
// A record costs its delta encoding, about 5 B on the synthetic workloads,
// where an isa.Branch costs 24 B. The delta chain runs on across appends,
// so Stream returns exactly what Write makes of the same records. The zero
// value is an empty log.
type RecordLog struct {
	data   []byte
	n      int
	lastPC addr.VA // the last record's PC, the base of the next one's delta
}

// Append encodes recs at the end of the log. Each record must be one a
// Decoder can return: a kind below isa.NumKinds and a block length in
// [1, isa.MaxBlockLen].
func (l *RecordLog) Append(recs []isa.Branch) {
	for i := range recs {
		l.data = appendRecord(l.data, recs[i], l.lastPC)
		l.lastPC = recs[i].PC
	}
	l.n += len(recs)
}

// Len returns the number of records in the log.
func (l *RecordLog) Len() int { return l.n }

// Size returns the bytes the log's array holds: its capacity, which is what
// the log costs in memory, slack that appends leave included.
func (l *RecordLog) Size() int { return cap(l.data) }

// Stream returns the log as a complete PDT1 stream named name.
func (l *RecordLog) Stream(name string) []byte {
	out := make([]byte, 0, len(magic)+binary.MaxVarintLen64+len(name)+len(l.data)+1)
	out = append(appendHeader(out, name), l.data...)
	return append(out, endOfStream)
}

// Open returns a BatchReader over the records the log holds now.
func (l *RecordLog) Open() BatchReader { return &logReader{data: l.data, left: l.n} }

// ParseRecordLog validates every record of a PDT1 stream and returns them
// as a log that keeps the stream's record bytes; bytes after the trailer
// are dropped. It accepts what a Decoder accepts and fails as a Decoder
// fails, at the same record index and byte offset. A record whose bytes
// are not its shortest encoding (a padded varint, or a delta that wraps
// the 57-bit address space) is kept re-encoded, so that Stream still
// equals Write of the log's records.
func ParseRecordLog(stream []byte) (*RecordLog, error) {
	d, err := NewDecoder(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	hdr := int(d.Offset())
	p := stream[hdr:]
	l := &RecordLog{}
	var enc []byte
	var out []byte // the re-encoded records, once one differs from its bytes
	var b isa.Branch
	for off := 0; ; {
		n, field, err := decodeRecord(&b, p[off:], l.lastPC)
		if err == io.EOF {
			if out == nil {
				out = p[:off:off]
			}
			l.data = out
			return l, nil
		}
		if err != nil {
			return nil, recordError("trace", int64(l.n), int64(hdr+off+n), field, err)
		}
		enc = appendRecord(enc[:0], b, l.lastPC)
		switch {
		case out != nil:
			out = append(out, enc...)
		case !bytes.Equal(enc, p[off:off+n]):
			out = append(append(make([]byte, 0, len(p)), p[:off]...), enc...)
		}
		off += n
		l.n++
		l.lastPC = b.PC
	}
}

// logReader decodes a RecordLog's bytes. It implements BatchReader.
type logReader struct {
	data   []byte
	off    int
	left   int // records not yet decoded; the log's count ends it
	rec    int64
	prevPC addr.VA
}

// Next implements Reader: a batch of one record.
func (r *logReader) Next() (isa.Branch, error) {
	var one [1]isa.Branch
	if _, err := r.NextBatch(one[:]); err != nil {
		return isa.Branch{}, err
	}
	return one[0], nil
}

// NextBatch implements BatchReader.
func (r *logReader) NextBatch(buf []isa.Branch) (int, error) {
	if r.left == 0 {
		return 0, io.EOF
	}
	k, used, field, err := decodeRecords(buf[:min(len(buf), r.left)], r.data[r.off:], r.prevPC, true)
	r.off += used
	r.left -= k
	r.rec += int64(k)
	if k > 0 {
		r.prevPC = buf[k-1].PC
	}
	if err != nil {
		// Only a record Append was not allowed to take gets here.
		return k, recordError("trace", r.rec, int64(r.off), field, err)
	}
	return k, nil
}
