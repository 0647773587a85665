package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time. Sleeping and sending only ever move it
// forward to a given instant, so the order in which goroutines move it
// does not change where it ends up.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.Now()
	const service = 3 * time.Millisecond
	// One connection, a batch due every 1 ms, each taking 3 ms: the
	// generator falls further behind with every batch.
	got := drive(clk, load{Tenants: 4, Conns: 1, Rate: 1000, For: 10 * time.Millisecond}, func(s *sample) error {
		clk.SleepUntil(s.Sent.Add(service))
		return nil
	})
	if len(got) != 10 {
		t.Fatalf("sent %d batches, want 10", len(got))
	}
	ms := time.Millisecond
	for j, s := range got {
		if want := start.Add(time.Duration(j) * ms); !s.Due.Equal(want) {
			t.Errorf("batch %d due %v, want %v", j, s.Due.Sub(start), want.Sub(start))
		}
		if want := time.Duration(2*j) * ms; s.lag() != want {
			t.Errorf("batch %d generator lag %v, want %v", j, s.lag(), want)
		}
		// Latency counts the wait behind earlier batches, not only the
		// 3 ms the batch itself took.
		if want := time.Duration(2*j)*ms + service; s.latency() != want {
			t.Errorf("batch %d latency %v, want %v", j, s.latency(), want)
		}
		if s.Tenant != j%4 || s.Seq != uint64(j/4+1) {
			t.Errorf("batch %d went to tenant %d as seq %d", j, s.Tenant, s.Seq)
		}
	}
}

func TestTenantBatchesStayInOrder(t *testing.T) {
	for _, l := range []load{
		{Tenants: 3, Conns: 2, Batches: 90},
		{Tenants: 3, Conns: 2, Rate: 5000, For: 20 * time.Millisecond},
	} {
		clk := &fakeClock{now: time.Unix(0, 0)}
		var mu sync.Mutex
		inFlight := map[int]bool{}
		nextSeq := map[int]uint64{}
		got := drive(clk, l, func(s *sample) error {
			mu.Lock()
			if inFlight[s.Tenant] {
				t.Errorf("tenant %d seq %d sent while its previous batch was unacknowledged", s.Tenant, s.Seq)
			}
			if s.Seq != nextSeq[s.Tenant]+1 {
				t.Errorf("tenant %d sent seq %d after %d", s.Tenant, s.Seq, nextSeq[s.Tenant])
			}
			inFlight[s.Tenant] = true
			nextSeq[s.Tenant] = s.Seq
			mu.Unlock()
			// Uneven service times reorder completions across tenants.
			clk.SleepUntil(s.Sent.Add(time.Duration(1+(s.Seq*7+uint64(s.Tenant))%5) * 100 * time.Microsecond))
			mu.Lock()
			inFlight[s.Tenant] = false
			mu.Unlock()
			return nil
		})
		if want := max(l.Batches, int(l.Rate*l.For.Seconds())); len(got) != want {
			t.Errorf("%+v: sent %d batches, want %d", l, len(got), want)
		}
		for _, s := range got {
			if l.Rate == 0 && !s.Due.Equal(s.Sent) {
				t.Errorf("closed-loop batch due %v but sent %v", s.Due, s.Sent)
			}
			if s.Acked.Before(s.Sent) || s.Sent.Before(s.Due) {
				t.Errorf("batch timeline out of order: due %v sent %v acked %v", s.Due, s.Sent, s.Acked)
			}
		}
	}
}
