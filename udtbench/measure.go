package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"udt/internal/timing"
)

// procCPU returns the process's user+system CPU time so far.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rtSample is a snapshot of the process counters a measured window is
// differenced over.
type rtSample struct {
	at      time.Time
	cpu     time.Duration
	allocs  uint64  // heap objects allocated
	gcCPU   float64 // GC CPU seconds (runtime estimate)
	busyCPU float64 // non-idle CPU seconds (runtime estimate)
	ledger  []int64 // ledger nanoseconds per bucket
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// numBuckets is the number of ledger cost centres.
var numBuckets = len(timing.Buckets())

func sampleRuntime(l *timing.Ledger) rtSample {
	s := rtSample{at: time.Now(), cpu: procCPU(), ledger: make([]int64, numBuckets)}
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocs = ms[0].Value.Uint64()
	s.gcCPU = ms[1].Value.Float64()
	s.busyCPU = ms[2].Value.Float64() - ms[3].Value.Float64()
	if l != nil {
		for _, b := range timing.Buckets() {
			s.ledger[b] = l.Nanos(b)
		}
	}
	return s
}
