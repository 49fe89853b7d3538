// Package timing provides the real transport's time plumbing: a
// microsecond monotonic clock and a lightweight CPU-time attribution
// ledger used to reproduce the paper's per-function cost table (Table 3).
//
// The paper's hybrid sleep/busy-wait pacer (§4.5) is deliberately absent:
// the transport's scheduler parks on a timer wheel and catches a late wake
// up by sending the overdue packets as one train (see DESIGN.md).
package timing

import (
	"sync/atomic"
	"time"
)

// SysClock is the wall (monotonic) clock.
type SysClock struct {
	base time.Time
}

// NewSysClock returns a monotonic microsecond clock with origin ≈ now.
func NewSysClock() *SysClock { return &SysClock{base: time.Now()} }

// Now returns the microseconds elapsed since the clock's origin.
func (c *SysClock) Now() int64 { return time.Since(c.base).Microseconds() }

// At converts an absolute time to this clock's microsecond timeline,
// clamped at 0 for instants that precede the clock's origin (a datagram
// read racing ahead of connection setup). It lets a shared socket reader
// stamp a whole receive batch once and hand each connection an arrival
// time on its own clock.
func (c *SysClock) At(t time.Time) int64 {
	us := t.Sub(c.base).Microseconds()
	if us < 0 {
		return 0
	}
	return us
}

// Bucket identifies a cost center in the send/receive paths, mirroring the
// function rows of the paper's Table 3.
type Bucket int

// Cost centers. Send side: UDP writing, timing (the scheduler's timer
// wheel), packing data, processing control packets, application
// interaction. Receive side: UDP reading, measurement (bandwidth/RTT/arrival
// speed), unpacking, loss processing, timing. Other catches everything
// unattributed.
const (
	BucketUDPWrite Bucket = iota
	BucketTiming
	BucketPack
	BucketProcessCtrl
	BucketAppInteract
	BucketUDPRead
	BucketMeasure
	BucketUnpack
	BucketLossProc
	BucketOther
	numBuckets
)

var bucketNames = [numBuckets]string{
	"udp-write", "timing", "pack", "process-ctrl", "app-interact",
	"udp-read", "measure", "unpack", "loss-proc", "other",
}

// String returns the bucket's row label.
func (b Bucket) String() string {
	if b < 0 || b >= numBuckets {
		return "invalid"
	}
	return bucketNames[b]
}

// Ledger accumulates wall time per bucket. It is safe for concurrent use;
// when disabled (the zero value's Enabled=false) every operation is a no-op
// costing one branch, so shipping it compiled into the hot path is free.
type Ledger struct {
	Enabled bool
	buckets [numBuckets]atomic.Int64
}

// Add charges d nanoseconds to bucket b.
func (l *Ledger) Add(b Bucket, d time.Duration) {
	if l == nil || !l.Enabled {
		return
	}
	l.buckets[b].Add(int64(d))
}

// Stamp marks the start of a timed span: nanoseconds on a process-wide
// monotonic timeline, or 0 when the ledger that issued it is off.
type Stamp int64

// epoch is the origin of the Stamp timeline.
var epoch = time.Now()

// Start opens a span for Stop to charge. Start and Stop are the hot-path
// form of Add: a span costs no closure, and one branch when the ledger is
// off.
func (l *Ledger) Start() Stamp {
	if l == nil || !l.Enabled {
		return 0
	}
	return Stamp(time.Since(epoch))
}

// Stop charges the wall time since start to bucket b. Spans nest: an inner
// span's time is charged to its own bucket and also to the enclosing one.
func (l *Ledger) Stop(b Bucket, start Stamp) {
	if start == 0 {
		return
	}
	l.buckets[b].Add(int64(time.Since(epoch)) - int64(start))
}

// Total returns the sum over all buckets in nanoseconds.
func (l *Ledger) Total() int64 {
	var t int64
	for i := range l.buckets {
		t += l.buckets[i].Load()
	}
	return t
}

// Share returns bucket b's fraction of the total (0 when nothing recorded).
func (l *Ledger) Share(b Bucket) float64 {
	t := l.Total()
	if t == 0 {
		return 0
	}
	return float64(l.buckets[b].Load()) / float64(t)
}

// Nanos returns the raw accumulation for bucket b.
func (l *Ledger) Nanos(b Bucket) int64 { return l.buckets[b].Load() }

// Buckets returns every bucket id in display order.
func Buckets() []Bucket {
	out := make([]Bucket, numBuckets)
	for i := range out {
		out[i] = Bucket(i)
	}
	return out
}
