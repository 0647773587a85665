package main

import (
	"sync"
	"time"
)

// clock is the load generator's view of time. The benchmark uses the wall
// clock; tests substitute a virtual one so schedules are exact.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		sleepFor(d)
	}
}

// load is one phase of tenant traffic.
type load struct {
	Tenants int
	// Conns bounds batches in flight at once; each sender goroutine holds
	// one keep-alive connection.
	Conns int
	// Rate is the open-loop arrival rate in batches per second, for the
	// duration For: Rate×For batches are scheduled and all are waited for.
	// Zero runs a closed loop of Batches batches instead: each connection
	// sends its next batch as soon as its last one is acknowledged.
	Rate    float64
	For     time.Duration
	Batches int
}

// sample is one batch's timeline. Latency is measured from Due, the time
// the schedule said the batch should go out, so a stall also counts
// against every batch it delayed (no coordinated omission). In a closed
// loop a batch is due when it is sent.
type sample struct {
	Tenant           int
	Seq              uint64
	Due, Sent, Acked time.Time
	Err              error

	done chan struct{}
}

func (s *sample) latency() time.Duration { return s.Acked.Sub(s.Due) }

// lag is how late the generator itself sent the batch.
func (s *sample) lag() time.Duration { return s.Sent.Sub(s.Due) }

// drive runs one phase of l through send and returns every batch in
// dispatch order. Batch j goes to tenant j mod Tenants as that tenant's
// sequence number j/Tenants+1. A tenant's next batch is not sent before
// its previous one is acknowledged, so each tenant's batches arrive in
// order, as the service's sequence protocol requires.
func drive(clk clock, l load, send func(*sample) error) []*sample {
	tokens := make(chan struct{}, l.Conns) // one per connection
	for i := 0; i < l.Conns; i++ {
		tokens <- struct{}{}
	}
	jobs := make(chan *sample, l.Conns) // a job is queued only with a token held
	var wg sync.WaitGroup
	for i := 0; i < l.Conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				s.Err = send(s)
				s.Acked = clk.Now()
				close(s.done)
				tokens <- struct{}{}
			}
		}()
	}

	start := clk.Now()
	total := l.Batches
	if l.Rate > 0 {
		total = int(l.Rate * l.For.Seconds())
	}
	last := make([]chan struct{}, l.Tenants)
	var all []*sample
	for j := 0; j < total; j++ {
		s := &sample{Tenant: j % l.Tenants, Seq: uint64(j/l.Tenants + 1), done: make(chan struct{})}
		if l.Rate > 0 {
			s.Due = start.Add(time.Duration(float64(j) / l.Rate * float64(time.Second)))
			clk.SleepUntil(s.Due)
		}
		if prev := last[s.Tenant]; prev != nil {
			<-prev
		}
		<-tokens
		s.Sent = clk.Now()
		if l.Rate == 0 {
			s.Due = s.Sent
		}
		last[s.Tenant] = s.done
		all = append(all, s)
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return all
}
