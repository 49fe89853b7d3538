package timing

import (
	"sync"
	"testing"
	"time"
)

func TestSysClockMonotonic(t *testing.T) {
	c := NewSysClock()
	a := c.Now()
	time.Sleep(2 * time.Millisecond)
	b := c.Now()
	if b <= a {
		t.Fatalf("clock not monotonic: %d then %d", a, b)
	}
	if d := b - a; d < 1500 || d > 500_000 {
		t.Fatalf("2 ms sleep measured as %d µs", d)
	}
}

func TestLedgerDisabledIsNoop(t *testing.T) {
	var l Ledger
	l.Add(BucketPack, time.Second)
	st := l.Start()
	if st != 0 {
		t.Fatalf("disabled ledger issued stamp %d, want 0", st)
	}
	time.Sleep(time.Millisecond)
	l.Stop(BucketUDPWrite, st)
	if l.Total() != 0 {
		t.Fatal("disabled ledger accumulated time")
	}
	var nilLedger *Ledger
	nilLedger.Add(BucketPack, time.Second) // must not panic
	nilLedger.Stop(BucketPack, nilLedger.Start())
}

func TestLedgerShares(t *testing.T) {
	l := &Ledger{Enabled: true}
	l.Add(BucketUDPWrite, 300*time.Millisecond)
	l.Add(BucketPack, 100*time.Millisecond)
	if got := l.Share(BucketUDPWrite); got < 0.74 || got > 0.76 {
		t.Fatalf("Share(udp-write) = %v, want 0.75", got)
	}
	if got := l.Share(BucketTiming); got != 0 {
		t.Fatalf("Share(timing) = %v, want 0", got)
	}
	if l.Nanos(BucketPack) != int64(100*time.Millisecond) {
		t.Fatal("Nanos mismatch")
	}
}

func TestLedgerTimeCharges(t *testing.T) {
	l := &Ledger{Enabled: true}
	outer := l.Start()
	inner := l.Start()
	time.Sleep(2 * time.Millisecond)
	l.Stop(BucketLossProc, inner)
	l.Stop(BucketProcessCtrl, outer)
	if l.Nanos(BucketLossProc) < int64(time.Millisecond) {
		t.Fatalf("inner span charged %d ns", l.Nanos(BucketLossProc))
	}
	// A nested span is also charged to the enclosing bucket.
	if l.Nanos(BucketProcessCtrl) < l.Nanos(BucketLossProc) {
		t.Fatalf("outer span charged %d ns < inner %d ns",
			l.Nanos(BucketProcessCtrl), l.Nanos(BucketLossProc))
	}
}

func TestLedgerStampAllocs(t *testing.T) {
	for _, l := range []*Ledger{nil, {}, {Enabled: true}} {
		if n := testing.AllocsPerRun(100, func() { l.Stop(BucketPack, l.Start()) }); n != 0 {
			t.Fatalf("Start/Stop allocates %.1f times (ledger %+v)", n, l)
		}
	}
}

func TestBucketNames(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Buckets() {
		s := b.String()
		if s == "" || s == "invalid" {
			t.Fatalf("bucket %d has bad name %q", b, s)
		}
		if seen[s] {
			t.Fatalf("duplicate bucket name %q", s)
		}
		seen[s] = true
	}
	if Bucket(-1).String() != "invalid" || Bucket(999).String() != "invalid" {
		t.Fatal("out-of-range buckets must stringify as invalid")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := &Ledger{Enabled: true}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Add(BucketOther, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if l.Nanos(BucketOther) != 8000 {
		t.Fatalf("concurrent adds lost updates: %d", l.Nanos(BucketOther))
	}
}
