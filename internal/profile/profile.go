// Package profile writes the runtime/pprof profiles the command-line tools
// take on request (-cpuprofile, -memprofile), for `go tool pprof`.
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the profile files whose paths are set, so a bad path fails
// before the run, and begins a CPU profile into cpuPath. The returned stop
// ends it and writes a heap profile of what is live at that point into
// memPath. stop must run before the process exits.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, err
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if mem == nil {
			return nil
		}
		runtime.GC() // the profile then shows what is live, not what was
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("writing %s: %w", memPath, err)
		}
		return mem.Close()
	}, nil
}
