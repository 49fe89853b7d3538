package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArrivalRateSteady(t *testing.T) {
	w := NewArrivalWindow(DefaultArrivalWindow)
	// 100 µs spacing → 10,000 packets/s.
	now := int64(0)
	for i := 0; i < 32; i++ {
		w.OnArrival(now)
		now += 100
	}
	r := w.Rate()
	if r < 9000 || r > 11000 {
		t.Fatalf("Rate = %d, want ≈10000", r)
	}
}

func TestArrivalRateInsufficientHistory(t *testing.T) {
	w := NewArrivalWindow(16)
	w.OnArrival(0)
	w.OnArrival(100)
	if r := w.Rate(); r != 0 {
		t.Fatalf("Rate with 1 interval = %d, want 0", r)
	}
}

func TestArrivalRateIgnoresIdleGaps(t *testing.T) {
	w := NewArrivalWindow(16)
	now := int64(0)
	for i := 0; i < 40; i++ {
		w.OnArrival(now)
		if i%10 == 9 {
			now += 1_000_000 // 1 s application pause
		} else {
			now += 100
		}
	}
	r := w.Rate()
	// The median filter must discard the 1 s outliers: estimate stays near
	// the true inter-packet spacing, not the mean (~10x slower).
	if r < 8000 || r > 12000 {
		t.Fatalf("Rate = %d, want ≈10000 despite idle gaps", r)
	}
}

func TestArrivalRateZeroGap(t *testing.T) {
	w := NewArrivalWindow(4)
	for i := 0; i < 10; i++ {
		w.OnArrival(5) // identical timestamps must not divide by zero
	}
	_ = w.Rate()
}

func TestArrivalRateCoalescedBursts(t *testing.T) {
	// GRO/recvmmsg delivery: 16-packet trains whose members share one
	// timestamp, trains 200 µs apart. True rate is 16 pkts / 200 µs =
	// 80,000 pkts/s; naive 1 µs clamping of the zero gaps would claim
	// ~1,000,000 pkts/s.
	w := NewArrivalWindow(DefaultArrivalWindow)
	now := int64(0)
	for train := 0; train < 8; train++ {
		for i := 0; i < 16; i++ {
			w.OnArrival(now)
		}
		now += 200
	}
	r := w.Rate()
	if r < 70000 || r > 90000 {
		t.Fatalf("Rate = %d, want ≈80000 (burst gap amortized over the train)", r)
	}
}

func TestProbeCapacityZeroGapClamped(t *testing.T) {
	// A zero gap is "faster than the clock resolves": it clamps to 1 µs
	// rather than being dropped, so infinitely fast virtual links (and
	// batched reads delivering both pair halves at once) keep a capacity
	// estimate — an upper bound, bounded in turn by the honest
	// arrival-speed window.
	w := NewProbeWindow(8)
	for i := 0; i < 8; i++ {
		w.OnPair(0)
	}
	if c := w.Capacity(); c != 1e6 {
		t.Fatalf("Capacity from clamped zero-gap pairs = %d, want 1000000", c)
	}
}

func TestProbeCapacity(t *testing.T) {
	w := NewProbeWindow(DefaultProbeWindow)
	// 12 µs pair spacing → ~83,333 packets/s ≈ 1 Gb/s at 1500 B.
	for i := 0; i < 64; i++ {
		w.OnPair(12)
	}
	c := w.Capacity()
	if c < 80000 || c > 90000 {
		t.Fatalf("Capacity = %d, want ≈83333", c)
	}
}

func TestProbeCapacityFiltersNoise(t *testing.T) {
	w := NewProbeWindow(64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if rng.Intn(10) == 0 {
			w.OnPair(5000) // queueing-disturbed outlier
		} else {
			w.OnPair(12)
		}
	}
	c := w.Capacity()
	if c < 70000 || c > 95000 {
		t.Fatalf("Capacity = %d, want ≈83333 despite outliers", c)
	}
}

func TestProbeCapacityEmpty(t *testing.T) {
	w := NewProbeWindow(8)
	if c := w.Capacity(); c != 0 {
		t.Fatalf("empty Capacity = %d, want 0", c)
	}
}

func TestAckWindowMatch(t *testing.T) {
	w := NewAckWindow(8)
	w.Store(1, 100, 1000)
	w.Store(2, 200, 2000)
	seq, rtt, ok := w.Acknowledge(2, 2500)
	if !ok || seq != 200 || rtt != 500 {
		t.Fatalf("Acknowledge(2) = %d,%d,%v", seq, rtt, ok)
	}
	// Entry 1 was older than the matched one: invalidated.
	if _, _, ok := w.Acknowledge(1, 3000); ok {
		t.Fatal("stale ACK2 matched")
	}
}

func TestAckWindowMiss(t *testing.T) {
	w := NewAckWindow(4)
	if _, _, ok := w.Acknowledge(9, 10); ok {
		t.Fatal("matched in empty window")
	}
	for i := int32(0); i < 10; i++ {
		w.Store(i, i*10, int64(i)*100)
	}
	// id 0..5 rotated out of a 4-entry window.
	if _, _, ok := w.Acknowledge(3, 5000); ok {
		t.Fatal("matched rotated-out entry")
	}
	if _, _, ok := w.Acknowledge(9, 5000); !ok {
		t.Fatal("failed to match newest entry")
	}
}

func TestAckWindowRTTFloor(t *testing.T) {
	w := NewAckWindow(4)
	w.Store(1, 10, 500)
	_, rtt, ok := w.Acknowledge(1, 400) // clock skew: earlier "now"
	if !ok || rtt != 1 {
		t.Fatalf("rtt = %d, want floor 1", rtt)
	}
}

func TestRTTSmoothing(t *testing.T) {
	r := NewRTT(100_000)
	if r.Smoothed() != 100_000 || r.Var() != 50_000 {
		t.Fatal("bad seed")
	}
	r.Update(10_000) // first real sample replaces the seed
	if r.Smoothed() != 10_000 || r.Var() != 5_000 {
		t.Fatalf("first sample: srtt=%d var=%d", r.Smoothed(), r.Var())
	}
	for i := 0; i < 100; i++ {
		r.Update(10_000)
	}
	if r.Smoothed() != 10_000 {
		t.Fatalf("converged srtt = %d", r.Smoothed())
	}
	if v := r.Var(); v > 100 {
		t.Fatalf("converged var = %d, want ≈0", v)
	}
	if got := r.RTO(); got < 10_000 || got > 10_500 {
		t.Fatalf("RTO = %d", got)
	}
	r.Update(0)  // ignored
	r.Update(-5) // ignored
	if r.Smoothed() != 10_000 {
		t.Fatal("non-positive samples must be ignored")
	}
}

func TestRTTConvergesUpward(t *testing.T) {
	r := NewRTT(1000)
	for i := 0; i < 400; i++ {
		r.Update(200_000)
	}
	if s := r.Smoothed(); s < 190_000 {
		t.Fatalf("srtt = %d, want ≈200000", s)
	}
}

func TestPropMedianFilterBounds(t *testing.T) {
	// The filtered average always lies within [min, max] of the samples and
	// within (median/8, median*8).
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int64, len(raw))
		var lo, hi int64 = 1 << 62, 0
		for i, v := range raw {
			s := int64(v)
			if s < 0 {
				s = -s
			}
			s++ // strictly positive
			samples[i] = s
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		var scratch []int64
		avg, kept := medianFiltered(samples, &scratch)
		if kept == 0 {
			return true
		}
		return avg >= lo && avg <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEstimatorAllocs gates the median filter: once a window is full,
// Rate and Capacity sort in the window's own scratch and allocate nothing.
func TestEstimatorAllocs(t *testing.T) {
	aw := NewArrivalWindow(DefaultArrivalWindow)
	for now := int64(0); now <= 100*DefaultArrivalWindow; now += 100 {
		aw.OnArrival(now)
	}
	pw := NewProbeWindow(DefaultProbeWindow)
	for i := 0; i < DefaultProbeWindow; i++ {
		pw.OnPair(int64(10 + i%3))
	}
	if aw.Rate() == 0 || pw.Capacity() == 0 {
		t.Fatal("full windows produced no estimate")
	}
	if n := testing.AllocsPerRun(100, func() { aw.Rate() }); n != 0 {
		t.Fatalf("ArrivalWindow.Rate allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { pw.Capacity() }); n != 0 {
		t.Fatalf("ProbeWindow.Capacity allocates %.1f times, want 0", n)
	}
}

func TestPropArrivalRatePositive(t *testing.T) {
	f := func(gaps []uint16) bool {
		w := NewArrivalWindow(16)
		now := int64(0)
		for _, g := range gaps {
			now += int64(g)
			w.OnArrival(now)
		}
		return w.Rate() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
