package telemetry

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles wires the -cpuprofile/-memprofile flag pair of the
// command-line tools: it begins CPU profiling (when cpuprofile is
// non-empty) and returns a stop function that ends it and writes the heap
// profile (when memprofile is non-empty). Run the stop function after the
// measured workload; its error reports a profile that did not reach disk.
// With both paths empty, StartProfiles and its stop function are no-ops.
func StartProfiles(cpuprofile, memprofile string) (func() error, error) {
	var cpu *os.File
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpu = f
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memprofile != "" {
			errs = append(errs, writeHeapProfile(memprofile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile writes the steady-state heap profile to path; a failed
// Close counts, since it can be the write that lost the profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the steady-state heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
