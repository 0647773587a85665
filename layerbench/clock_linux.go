//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling thread in nanosleep(2). The Go runtime's
// timers round a sub-millisecond sleep up to about a millisecond on Linux,
// which at 1000 batches/s would add up to a whole batch interval of
// generator lag to every latency; the kernel's timer wakes within tens of
// microseconds.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	var rem syscall.Timespec
	for syscall.Nanosleep(&ts, &rem) == syscall.EINTR {
		ts = rem
	}
}
