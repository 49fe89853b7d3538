// Package flow implements UDT's receiver-side measurement machinery (paper
// §3.2 and §3.4): the packet-arrival-speed estimator that drives the dynamic
// flow window W = AS·(SYN+RTT), the receiver-based packet-pair (RBPP) link
// capacity estimator that drives the rate-control increase parameter, the
// ACK history window used to measure RTT from ACK/ACK2 exchanges, and the
// exponentially smoothed RTT estimator.
//
// All times are int64 microseconds on a monotonic clock.
package flow

import "slices"

// ArrivalWindow estimates the packet arrival speed through a median filter
// on the most recent packet arrival intervals. A mean over a fixed period
// would be wrong because data sending may pause (paper §3.2); the median
// filter drops intervals that are far from the median (idle gaps and
// back-to-back bursts) before averaging the rest.
type ArrivalWindow struct {
	intervals []int64 // ring buffer of inter-arrival gaps, µs
	pos       int
	filled    int
	last      int64 // previous arrival time
	seen      bool
	coalesced int     // arrivals in the same µs as their predecessor, pending amortization
	burst     bool    // clamp coalesced gaps to 1 µs instead of amortizing
	sorted    []int64 // medianFiltered scratch, grown by the first estimates
}

// DefaultArrivalWindow is the history size used by UDT (16 packets).
const DefaultArrivalWindow = 16

// NewArrivalWindow returns an arrival-speed estimator over the last n
// inter-arrival intervals. Coalesced arrivals (zero gap from a batched
// read) are amortized over the next measurable gap, so the estimate is the
// *achieved* delivery rate — what the rate laws (slow-start exit, the AIMD
// base) want.
func NewArrivalWindow(n int) *ArrivalWindow {
	if n < 2 {
		n = 2
	}
	return &ArrivalWindow{intervals: make([]int64, n)}
}

// NewBurstArrivalWindow returns an arrival-speed estimator with *peak*
// semantics: coalesced arrivals record the 1 µs clock floor instead of
// being amortized, so a window-limited burst that lands in one read batch
// reads as a very fast arrival run, and the idle stretches between bursts
// are dropped by the median filter. This is the §3.2 arrival speed that
// sizes the flow window W = AS·(SYN+RTT): it must reflect how fast packets
// CAN arrive, not the average achieved rate — a window derived from the
// achieved rate is a fixed point the sender can never grow past. Where
// arrivals carry honest per-packet times (the simulator, sparse traffic)
// the two estimators see identical gaps and agree.
func NewBurstArrivalWindow(n int) *ArrivalWindow {
	w := NewArrivalWindow(n)
	w.burst = true
	return w
}

// OnArrival records a data packet arrival at time now.
//
// Arrivals in the same microsecond as their predecessor carry no timing
// information of their own: a batched read (recvmmsg, a GRO train) hands
// the whole burst to user space at once, so the zero spacing reflects the
// read mechanism, not the wire. Recording them as 1 µs samples would let
// them dominate the median under segmentation offload — where MOST
// arrivals are coalesced — and inflate AS by orders of magnitude, blowing
// up both the flow window W = AS·(SYN+RTT) and the sender's slow-start
// exit rate. Instead the burst is counted and the next measurable gap is
// amortized over it: a 16-packet train followed by a 200 µs gap records
// sixteen 12.5 µs samples, the burst's true average spacing.
func (w *ArrivalWindow) OnArrival(now int64) {
	if !w.seen {
		w.seen = true
		w.last = now
		return
	}
	gap := now - w.last
	w.last = now
	if gap <= 0 {
		if w.burst {
			gap = 1 // faster than the clock resolves: clamp to the floor
		} else {
			w.coalesced++
			return
		}
	}
	n := int64(w.coalesced) + 1
	w.coalesced = 0
	per := gap / n
	if per <= 0 {
		per = 1
	}
	for i := int64(0); i < n && i < int64(len(w.intervals)); i++ {
		w.intervals[w.pos] = per
		w.pos = (w.pos + 1) % len(w.intervals)
		if w.filled < len(w.intervals) {
			w.filled++
		}
	}
}

// medianFiltered returns the average of the samples within (median/8,
// median×8), and the number of samples kept. This is the paper's median
// filter; it needs at least half the window accepted to produce an estimate.
// The samples are sorted in *scratch, which the caller's window owns, so a
// steady estimate allocates nothing.
func medianFiltered(samples []int64, scratch *[]int64) (avg int64, kept int) {
	if len(samples) == 0 {
		return 0, 0
	}
	tmp := append((*scratch)[:0], samples...)
	*scratch = tmp
	slices.Sort(tmp)
	median := tmp[len(tmp)/2]
	var sum int64
	for _, v := range tmp {
		if v < median<<3 && v > median>>3 {
			sum += v
			kept++
		}
	}
	if kept == 0 {
		return 0, 0
	}
	return sum / int64(kept), kept
}

// Rate returns the estimated packet arrival speed in packets per second, or
// 0 when there is not yet enough accepted history.
func (w *ArrivalWindow) Rate() int32 {
	if w.filled < len(w.intervals) {
		return 0
	}
	avg, kept := medianFiltered(w.intervals[:w.filled], &w.sorted)
	if kept <= w.filled/2 || avg <= 0 {
		return 0
	}
	return int32(1e6 / avg)
}

// ProbeWindow estimates end-to-end link capacity from packet-pair probes
// (paper §3.4). Every 16th data packet is sent back-to-back with its
// successor; the receiver records the pair's arrival spacing, and the
// median-filtered average spacing is the per-packet service time of the
// bottleneck link.
type ProbeWindow struct {
	intervals []int64
	pos       int
	filled    int
	sorted    []int64 // medianFiltered scratch, grown by the first estimates
}

// DefaultProbeWindow is the history size used by UDT (64 pairs).
const DefaultProbeWindow = 64

// ProbeInterval is the packet-pair probing period in packets: a data packet
// whose sequence number satisfies seq % ProbeInterval == 0 is followed
// immediately (no pacing delay) by the next packet.
const ProbeInterval = 16

// NewProbeWindow returns a capacity estimator over the last n pair spacings.
func NewProbeWindow(n int) *ProbeWindow {
	if n < 2 {
		n = 2
	}
	return &ProbeWindow{intervals: make([]int64, n)}
}

// OnPair records the arrival spacing (µs) of a packet pair. A non-positive
// gap is clamped to 1 µs — the pair arrived faster than the clock
// resolves — so on fast paths (virtual links, batched reads that deliver
// both halves at once) the capacity estimate reads as an upper bound of
// ~1e6 packets per second rather than starving at zero. The arrival-speed
// window, which amortizes coalesced bursts honestly, is what bounds the
// flow window and the slow-start exit rate on such paths.
func (w *ProbeWindow) OnPair(gap int64) {
	if gap <= 0 {
		gap = 1
	}
	w.intervals[w.pos] = gap
	w.pos = (w.pos + 1) % len(w.intervals)
	if w.filled < len(w.intervals) {
		w.filled++
	}
}

// Capacity returns the estimated link capacity in packets per second, or 0
// when there is not enough history yet.
func (w *ProbeWindow) Capacity() int32 {
	if w.filled == 0 {
		return 0
	}
	avg, kept := medianFiltered(w.intervals[:w.filled], &w.sorted)
	if kept == 0 || avg <= 0 {
		return 0
	}
	return int32(1e6 / avg)
}

// AckWindow remembers recently sent ACKs so that the matching ACK2 yields an
// RTT sample and identifies the acknowledged sequence number.
type AckWindow struct {
	ids  []int32
	seqs []int32
	ts   []int64
	pos  int
	size int
}

// NewAckWindow returns an ACK history of n entries (UDT uses 1024).
func NewAckWindow(n int) *AckWindow {
	if n < 1 {
		n = 1
	}
	return &AckWindow{
		ids:  make([]int32, n),
		seqs: make([]int32, n),
		ts:   make([]int64, n),
	}
}

// Store records that an ACK with identifier ackID acknowledging seq was sent
// at time now.
func (w *AckWindow) Store(ackID, seq int32, now int64) {
	w.ids[w.pos] = ackID
	w.seqs[w.pos] = seq
	w.ts[w.pos] = now
	w.pos = (w.pos + 1) % len(w.ids)
	if w.size < len(w.ids) {
		w.size++
	}
}

// Acknowledge matches an incoming ACK2 with identifier ackID at time now,
// returning the acknowledged sequence number and the measured RTT. ok is
// false when the ACK has already been rotated out of the history or never
// existed (duplicate or stray ACK2).
func (w *AckWindow) Acknowledge(ackID int32, now int64) (seq int32, rtt int64, ok bool) {
	for i := 0; i < w.size; i++ {
		p := w.pos - 1 - i
		if p < 0 {
			p += len(w.ids)
		}
		if w.ids[p] == ackID {
			rtt = now - w.ts[p]
			if rtt < 1 {
				rtt = 1
			}
			seq = w.seqs[p]
			// Invalidate this and older entries cheaply by shrinking size.
			w.size = i
			if w.size < 0 {
				w.size = 0
			}
			return seq, rtt, true
		}
	}
	return 0, 0, false
}

// RTT smooths round-trip time samples the way UDT (and TCP) do:
// srtt += (sample − srtt)/8, rttvar += (|sample − srtt| − rttvar)/4.
type RTT struct {
	srtt int64
	rvar int64
	init bool
}

// NewRTT returns an estimator seeded with an initial guess (µs). UDT seeds
// 100 ms with 50 ms variance before the first sample.
func NewRTT(initial int64) *RTT {
	return &RTT{srtt: initial, rvar: initial / 2}
}

// Update folds in a new RTT sample (µs).
func (r *RTT) Update(sample int64) {
	if sample <= 0 {
		return
	}
	if !r.init {
		r.srtt = sample
		r.rvar = sample / 2
		r.init = true
		return
	}
	diff := sample - r.srtt
	if diff < 0 {
		diff = -diff
	}
	r.rvar += (diff - r.rvar) / 4
	r.srtt += (sample - r.srtt) / 8
}

// Smoothed returns the smoothed RTT in µs.
func (r *RTT) Smoothed() int64 { return r.srtt }

// Var returns the smoothed RTT variance in µs.
func (r *RTT) Var() int64 { return r.rvar }

// RTO returns the retransmission-timeout style expiry interval
// srtt + 4·rttvar used by UDT's EXP timer arithmetic.
func (r *RTT) RTO() int64 { return r.srtt + 4*r.rvar }
