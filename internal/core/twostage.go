package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"

	"repro/internal/isa"
	"repro/internal/trace"
)

// ringSlots is how many record batches the two-stage drain keeps in
// flight: one in the frontend stage, one in the back stage, and one spare
// that absorbs jitter between the two.
const ringSlots = 3

// stageSlot is one batch in flight between the two stages.
type stageSlot struct {
	batch []isa.Branch
	recs  []warmRec // recs[i] is batch[i]'s frontend outcome
	n     int       // records the frontend half has run over
	err   error     // the reader's error after batch[:n], or errStagePanic

	// panicked and stack are the panic the frontend stage caught after
	// batch[:n], and where it was raised (err is errStagePanic).
	panicked any
	stack    []byte
}

// errStagePanic stands in for the reader's error in a slot whose frontend
// stage panicked. applyBatch returns it only when none of the slot's
// records ended the run first, and the caller then re-raises the panic.
var errStagePanic = errors.New("core: frontend stage panicked")

// drainTwoStage is drain split across two goroutines (DESIGN.md §5.2). A
// producer goroutine owns r and the session's frontend: it decodes each
// batch and runs the frontend half over it, up to ringSlots batches ahead.
// The caller's goroutine runs the back half, the audit cadence and the
// measure-window check over each batch in trace order, so the Result is
// the one drain produces. The frontend runs ahead of the back half, which
// is sound only while the frontend never sees a BTB prediction: the caller
// keeps wrong-path pollution on drain.
//
// The producer is joined before drainTwoStage returns, on every path, so r
// (and any mapping behind it) is free once it does. A panic in the
// producer is re-raised on the caller's goroutine with the same value,
// after the records before it are applied, as drain would. Records that
// arrive before a reader error are applied before the error is returned.
func (se *Session) drainTwoStage(ctx context.Context, r trace.Reader) error {
	free := make(chan *stageSlot, ringSlots)
	full := make(chan *stageSlot, ringSlots)
	for i := 0; i < ringSlots; i++ {
		free <- &stageSlot{batch: make([]isa.Branch, recordBatch), recs: make([]warmRec, recordBatch)}
	}
	stop := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		// The producer reads its own copy of the frontend's pointers, not
		// the session's cache lines the back half writes.
		produce(se.sim.fe, r, free, full, stop)
	}()
	defer func() {
		close(stop)
		<-exited
	}()

	for {
		if err := checkCtx(ctx, se.records); err != nil {
			return err
		}
		sl := <-full // the producer queues a last slot before it ends
		if end, err := se.applyBatch(sl.batch[:sl.n], sl.recs, sl.err); end {
			if errors.Is(err, errStagePanic) {
				// The re-raised panic's trace shows only this goroutine.
				fmt.Fprintf(os.Stderr, "core: frontend stage panicked: %v\n%s", sl.panicked, sl.stack)
				panic(sl.panicked)
			}
			return err
		}
		free <- sl
	}
}

// produce is the frontend stage of drainTwoStage: it fills free slots and
// queues them on full until the reader ends or a panic is caught, or stop
// closes. Neither channel send can block: both hold every slot.
func produce(fe frontend, r trace.Reader, free <-chan *stageSlot, full chan<- *stageSlot, stop <-chan struct{}) {
	for {
		var sl *stageSlot
		select {
		case <-stop:
			return
		case sl = <-free:
		}
		// select picks at random among ready cases; once stop is closed,
		// decode nothing more.
		select {
		case <-stop:
			return
		default:
		}
		fill(fe, r, sl)
		full <- sl
		if sl.err != nil || sl.n == 0 {
			return
		}
	}
}

// fill decodes the next batch from r into sl and runs the frontend half
// over it. A panic in either is caught with its stack and stored in sl
// after the records whose frontend half completed.
func fill(fe frontend, r trace.Reader, sl *stageSlot) {
	sl.n, sl.err, sl.panicked, sl.stack = 0, nil, nil, nil
	defer func() {
		if v := recover(); v != nil {
			sl.err, sl.panicked, sl.stack = errStagePanic, v, debug.Stack()
		}
	}()
	n, err := trace.ReadBatch(r, sl.batch)
	for sl.n < n {
		sl.recs[sl.n] = fe.step(sl.batch[sl.n])
		sl.n++
	}
	sl.err = err
}
