package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// startCPUProfile profiles the saturate phase into
// <dir>/<workload>.cpu.pprof; the returned func stops it. A profile that
// cannot be written is reported and skipped — it is a debugging aid, not
// part of the measurement.
func startCPUProfile(dir, workload string) func() {
	f, err := os.Create(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: -profile:", err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: -profile:", err)
		f.Close()
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ucadbench: -profile:", err)
		}
	}
}

// writeAllocProfile dumps the allocation profile accumulated so far
// (sampled since process start; the saturate phase dominates it).
func writeAllocProfile(dir, workload string) {
	f, err := os.Create(filepath.Join(dir, workload+".alloc.pprof"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: -profile:", err)
		return
	}
	runtime.GC() // the heap profile is as of the last completed collection
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: -profile:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ucadbench: -profile:", err)
	}
}

// depthSampler polls the tenants' scoring-queue depth (and the feeders'
// read lag) during the phases of a traced run. Service.Stats is the only
// outside view of the queue and is not free (it walks the alert store),
// so it is sampled sparsely and only in the run that reports per-layer
// numbers.
type depthSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    int
	lagMax float64 // bytes
}

const depthEvery = 20 * time.Millisecond

func (d *depthSampler) start(s *sut) {
	d.stopCh = make(chan struct{})
	svcs := s.services()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(depthEvery)
		defer t.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-t.C:
				for _, svc := range svcs {
					if q := svc.Stats().QueueDepth; q > d.max {
						d.max = q
					}
				}
				for _, rig := range s.feeders {
					if lag := scrapeRegistry(rig.metrics.Registry).total("ucad_feed_lag_bytes"); lag > d.lagMax {
						d.lagMax = lag
					}
				}
			}
		}
	}()
}

// stop ends sampling (no-op when never started); max is safe to read
// afterwards.
func (d *depthSampler) stop() {
	if d.stopCh == nil {
		return
	}
	close(d.stopCh)
	d.wg.Wait()
	d.stopCh = nil
}
