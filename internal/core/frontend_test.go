package core

import (
	"runtime"
	"testing"

	"repro/internal/cache"
)

// TestFrontendFootprint bounds the host state of the frontend half that
// every serve tenant and every cold run holds: newFrontend at Icelake's
// geometry may allocate at most maxFrontend bytes, and each of its caches
// at most maxLineBytes per modelled line. Host state is the
// runtime.MemStats.TotalAlloc delta across the constructor, so the test is
// not parallel: another goroutine's allocations would count too.
func TestFrontendFootprint(t *testing.T) {
	const (
		maxFrontend  = 200 << 10
		maxLineBytes = 10
	)
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}

	p := Icelake()
	host := allocated(func() error {
		_, err := newFrontend(&p, true)
		return err
	})
	t.Logf("newFrontend(Icelake()): %.1f KiB", float64(host)/1024)
	if host > maxFrontend {
		t.Errorf("newFrontend(Icelake()) allocates %d B, over %d", host, maxFrontend)
	}

	for _, c := range []struct {
		name        string
		bytes, ways int
	}{{"ICache", p.ICacheBytes, p.ICacheWays}, {"L2", p.L2Bytes, p.L2Ways}} {
		host := allocated(func() error {
			_, err := cache.New(c.bytes, c.ways, p.ICacheLineBytes)
			return err
		})
		lines := uint64(c.bytes / p.ICacheLineBytes)
		t.Logf("%-6s %7.1f KiB, %.1f B per line", c.name, float64(host)/1024, float64(host)/float64(lines))
		if host > maxLineBytes*lines {
			t.Errorf("%s: cache.New allocates %d B for %d lines, over %d B per line", c.name, host, lines, maxLineBytes)
		}
	}
}
