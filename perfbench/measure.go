package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// runtime/metrics keys read around every leg.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mLiveBytes  = "/gc/heap/live:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

// sample is a process-wide reading taken at a leg boundary; legs report the
// difference of two samples.
type sample struct {
	cpu             time.Duration // getrusage user+sys
	allocBytes      uint64
	allocObjs       uint64
	gcCPU, totalCPU float64
	gcCycles        uint64
}

func takeSample() sample {
	ms := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCCycles},
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	// getrusage fails only for a bad pointer or an invalid who argument,
	// neither of which this call can pass.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return sample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms[0].Value.Uint64(),
		allocObjs:  ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
		gcCycles:   ms[4].Value.Uint64(),
	}
}

// livePeak keeps the largest /gc/heap/live:bytes reading taken right after
// a forced GC cycle. The metric otherwise changes only when a cycle ends, so
// a plain reading is as stale as the last cycle, and whether a cycle ends
// near a leg's true peak varies from leg to leg. Forcing the cycle at fixed
// points of the exploration makes the reading repeat.
type livePeak struct {
	mu  sync.Mutex
	max uint64
}

func (p *livePeak) sample() {
	runtime.GC()
	s := []metrics.Sample{{Name: mLiveBytes}}
	metrics.Read(s)
	p.mu.Lock()
	p.max = max(p.max, s[0].Value.Uint64())
	p.mu.Unlock()
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
