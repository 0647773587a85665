package trace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/isa"
)

// ErrInjected marks the read failure FaultPlan.FailAt injects, so tests
// can tell it from a real decode error with errors.Is.
var ErrInjected = errors.New("injected trace read error")

// FaultPlan configures deterministic fault injection. Record positions are
// 1-based indices into the stream a single Reader yields; zero disables
// that fault. Faults compose — each record position is checked against
// every configured fault, in the order the fields are listed below.
type FaultPlan struct {
	// PanicAt makes the reader panic when asked for this record, modelling
	// a bug in a predictor or decoder that the harness must contain.
	PanicAt uint64
	// FailAt makes the reader return an error wrapping ErrInjected at
	// this record.
	FailAt uint64
	// TruncateAt ends the stream with io.ErrUnexpectedEOF at this record,
	// modelling a trace file cut off mid-record.
	TruncateAt uint64
	// StallAt sleeps for StallFor before yielding this record, modelling a
	// slow or stalling client: the stream is correct but late. When
	// StallEvery is non-zero the stall repeats every StallEvery records
	// after StallAt (a persistently slow link rather than one hiccup).
	// StallFor <= 0 disables the stall regardless of StallAt.
	StallAt    uint64
	StallEvery uint64
	StallFor   time.Duration
	// EOFAt ends the stream with a clean io.EOF at this record, modelling
	// a client that dies after flushing a well-formed prefix — unlike
	// TruncateAt, the consumer cannot tell this short stream from a
	// complete one, so detection has to happen at a higher layer (record
	// counts, sequence acks).
	EOFAt uint64
	// LoopForever restarts the underlying source on EOF so the stream
	// never ends, modelling a hung or runaway reader; only a deadline
	// stops the consumer.
	LoopForever bool
}

// stalls reports whether record pos triggers a stall under p.
func (p *FaultPlan) stalls(pos uint64) bool {
	if p.StallFor <= 0 || p.StallAt == 0 || pos < p.StallAt {
		return false
	}
	if pos == p.StallAt {
		return true
	}
	return p.StallEvery != 0 && (pos-p.StallAt)%p.StallEvery == 0
}

// FaultSource wraps a Source, injecting the faults of Plan into every
// Reader it opens. It implements Source, and Open is safe for concurrent
// use when Src's is: the parallel suite runner opens one reader per
// (app, design) cell, and cells of one app run concurrently.
type FaultSource struct {
	Src  Source
	Plan FaultPlan
}

// Name implements Source.
func (f *FaultSource) Name() string { return f.Src.Name() }

// Open implements Source.
func (f *FaultSource) Open() Reader {
	return &FaultReader{R: f.Src.Open(), Plan: f.Plan, reopen: f.Src.Open}
}

// FaultReader injects the faults of Plan into an underlying Reader. It
// implements Reader. The zero Plan is a transparent pass-through.
type FaultReader struct {
	R    Reader
	Plan FaultPlan

	pos    uint64
	eof    bool          // EOFAt fired: the stream has ended for good
	reopen func() Reader // for LoopForever; nil restarts nothing
}

// Next implements Reader.
func (r *FaultReader) Next() (isa.Branch, error) {
	if r.eof {
		return isa.Branch{}, io.EOF
	}
	r.pos++
	if r.Plan.stalls(r.pos) {
		time.Sleep(r.Plan.StallFor)
	}
	switch p := &r.Plan; r.pos {
	case p.PanicAt:
		panic(fmt.Sprintf("trace: injected panic at record %d of %T", r.pos, r.R))
	case p.FailAt:
		return isa.Branch{}, fmt.Errorf("trace: injected fault at record %d: %w", r.pos, ErrInjected)
	case p.TruncateAt:
		return isa.Branch{}, fmt.Errorf("trace: injected truncation at record %d: %w", r.pos, io.ErrUnexpectedEOF)
	case p.EOFAt:
		r.eof = true
		return isa.Branch{}, io.EOF
	}
	b, err := r.R.Next()
	if errors.Is(err, io.EOF) && r.Plan.LoopForever && r.reopen != nil {
		r.R = r.reopen()
		b, err = r.R.Next()
	}
	if err != nil {
		return isa.Branch{}, err
	}
	return b, nil
}
