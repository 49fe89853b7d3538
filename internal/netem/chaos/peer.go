package chaos

import (
	"fmt"
	"hash/fnv"

	"udt/internal/congestion"
	"udt/internal/core"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/trace"
)

// Peer is one single-threaded protocol endpoint: the real core engine and
// buffers, pumped by a deterministic driver loop — the virtual-clock
// counterpart of udt.Conn's goroutines. The driver (internal/campaign's Run)
// schedules Peers in rounds: deliver arriving datagrams, call Service, sleep
// to the earliest NextWake, repeat.
type Peer struct {
	eng *core.Conn
	snd *core.SndBuffer
	rcv *core.RcvBuffer
	out func(b []byte)  // transmit one datagram (the driver stamps any framing)
	sec *secure.Session // nil = cleartext; else every packet seals/opens

	payload  []byte // stream this peer sends
	sendOff  int
	wantLen  int // bytes expected from the other side
	wantHash uint64

	recvBytes int
	recvHash  hashState

	lastDecision core.SendDecision
	brokenAt     int64

	// Write→acked latency tracking (campaign monitor): first-transmission
	// times per sequence and the resulting per-packet ack latencies.
	trackAck  bool
	sendTimes map[int32]int64
	ackLat    []int64
	ackedTo   int32 // SndLastAck already folded into ackLat

	scratch []byte
	rbuf    []byte
}

// PeerOptions parameterizes one driver-pumped protocol endpoint.
type PeerOptions struct {
	// MSS is the UDT packet size in bytes. Default 1472.
	MSS int
	// SndBufPkts and RcvBufPkts size the peer buffers. Default 4096.
	SndBufPkts, RcvBufPkts int
	// MinEXP and PeerDeathTime tune failure detection, in µs; zero keeps
	// the core defaults (300 ms floor, 5 s death).
	MinEXP, PeerDeathTime int64
	// CC names the congestion controller ("native", "ctcp", "bbrlite", ...).
	// Empty selects the native law with a nil factory — the exact
	// pre-pluggable construction path.
	CC string
	// ISN and PeerISN are the two sides' initial sequence numbers.
	ISN, PeerISN int32
	// Payload is the stream this peer sends (may be empty).
	Payload []byte
	// Expect is the stream the other side sends to this peer; the peer
	// verifies it byte-for-byte (FNV-64a over length and content).
	Expect []byte
	// Out transmits one datagram; the driver's hook adds any framing the
	// topology needs and offers the datagram to the fabric.
	Out func(b []byte)
	// Secure runs the peer over the sealed AEAD channel.
	Secure *secure.Session
	// TrackAckLatency records per-packet write→acked latencies
	// (AckLatencies); costs one map entry per in-flight packet. The
	// campaign driver sets it on each flow's source end.
	TrackAckLatency bool
}

// NewPeer builds a driver-pumped protocol endpoint from options. The caller
// owns scheduling: call Start once, then Deliver incoming datagrams and
// Service at each virtual instant.
func NewPeer(o PeerOptions) *Peer {
	if o.MSS == 0 {
		o.MSS = 1472
	}
	if o.SndBufPkts == 0 {
		o.SndBufPkts = 4096
	}
	if o.RcvBufPkts == 0 {
		o.RcvBufPkts = 4096
	}
	ccfg := core.Config{
		MSS:           o.MSS,
		ISN:           o.ISN,
		RecvBufPkts:   int32(o.RcvBufPkts),
		MinEXP:        o.MinEXP,
		PeerDeathTime: o.PeerDeathTime,
		CC:            ccFactory(o.CC),
	}
	scratch := o.MSS
	if o.Secure != nil {
		// Control packets grow by CtrlOverhead when sealed; give the encode
		// buffer that slack so sealing never truncates an emission.
		scratch += secure.CtrlOverhead
	}
	p := &Peer{
		eng:      core.NewConn(ccfg, o.PeerISN),
		sec:      o.Secure,
		out:      o.Out,
		payload:  o.Payload,
		wantLen:  len(o.Expect),
		wantHash: hashOf(o.Expect),
		recvHash: newHash(),
		trackAck: o.TrackAckLatency,
		scratch:  make([]byte, scratch),
		rbuf:     make([]byte, 65536),
	}
	pl := o.MSS - packet.DataHeaderSize
	if o.Secure != nil {
		// The Poly1305 tag rides inside the packet budget, exactly like the
		// real stack: a sealed data packet is still one MSS on the wire.
		pl -= secure.Overhead
	}
	p.snd = core.NewSndBuffer(o.SndBufPkts, pl, o.ISN)
	p.rcv = core.NewRcvBuffer(o.RcvBufPkts, pl, o.PeerISN)
	p.eng.AvailBuf = p.rcv.Free
	if p.trackAck {
		p.sendTimes = make(map[int32]int64)
		p.ackedTo = p.eng.SndLastAck()
	}
	return p
}

// ccFactory resolves a controller name for the engine config; the empty
// name maps to nil so default runs take the engine's own native path.
func ccFactory(name string) congestion.Factory {
	if name == "" {
		return nil
	}
	return congestion.MustNew(name)
}

// hashState is an incremental FNV-64a.
type hashState uint64

func newHash() hashState { return hashState(14695981039346656037) }

func (h *hashState) write(p []byte) {
	x := uint64(*h)
	for _, b := range p {
		x ^= uint64(b)
		x *= 1099511628211
	}
	*h = hashState(x)
}

func hashOf(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p) //nolint:errcheck
	return h.Sum64()
}

// Start arms the engine's timers at virtual time now; call exactly once
// before the first Service.
func (p *Peer) Start(now int64) { p.eng.Start(now) }

// Broken reports the engine declared the peer dead (EXP expiry).
func (p *Peer) Broken() bool { return p.eng.Broken() }

// NoteBroken records the first virtual instant the engine was observed
// broken and reports whether it is. Drivers call it once per scheduling
// round so PeerResult.BrokenAt is the detection time, not the wrap-up time.
func (p *Peer) NoteBroken(now int64) bool {
	if !p.eng.Broken() {
		return false
	}
	if p.brokenAt == 0 {
		p.brokenAt = now
	}
	return true
}

// Finished reports this peer has nothing left to do: everything it wrote
// is acknowledged and everything it expected has arrived.
func (p *Peer) Finished() bool {
	sentAll := p.sendOff == len(p.payload) && p.snd.Pending() == 0 && p.eng.Unacked() == 0
	return sentAll && p.recvBytes >= p.wantLen
}

// NextWake folds the peer's next timer deadline — and, when the sender is
// pacing-blocked, its next permitted send time — into bound, returning the
// earlier of the two. Broken peers never wake.
func (p *Peer) NextWake(bound int64) int64 {
	if p.eng.Broken() {
		return bound
	}
	if t := p.eng.NextTimer(); t < bound {
		bound = t
	}
	if p.lastDecision == core.WaitPacing {
		if t := p.eng.NextSendTime(); t < bound {
			bound = t
		}
	}
	return bound
}

// AttachPerf hooks the engine's telemetry sampler to sink: every everySYN
// SYN ticks one trace.PerfRecord stamped with the given flow id and label is
// recorded. Sampling adds no events and consumes no randomness, so attaching
// a monitor never perturbs the deterministic replay.
func (p *Peer) AttachPerf(sink trace.Sink, everySYN int, flow int32, label string, role trace.Role) {
	p.eng.SetPerfSink(sink, everySYN, flow, label, role)
}

// AckLatencies returns the recorded per-packet write→acked latencies in µs,
// in acknowledgement order (empty unless TrackAckLatency was set).
func (p *Peer) AckLatencies() []int64 { return p.ackLat }

// Service runs the peer's half of a scheduling round after the driver has
// delivered its datagrams: timers, control emissions, pacing-gated data
// sends, and buffer movement. It reports whether anything happened.
func (p *Peer) Service(now int64) (progress bool) {
	if p.eng.Broken() {
		return false
	}
	p.eng.Advance(now)
	if p.flushOutbox(now) {
		progress = true
	}
	// Feed the send buffer.
	if p.sendOff < len(p.payload) {
		if n := p.snd.Write(p.payload[p.sendOff:]); n > 0 {
			p.sendOff += n
			progress = true
		}
	}
	// Data path: lost packets first, then new data, as pacing allows.
	for {
		newAvail := seqno.Cmp(p.snd.NextWriteSeq(), seqno.Inc(p.eng.CurSeq())) > 0
		seq, d := p.eng.NextSend(now, newAvail)
		p.lastDecision = d
		if d != core.SendData && d != core.SendRetrans {
			break
		}
		pl, ok := p.snd.Packet(seq)
		if !ok {
			break
		}
		if p.trackAck && d == core.SendData {
			// First transmission only: ack latency is measured from the
			// original send, so retransmit delay counts against it.
			if _, dup := p.sendTimes[seq]; !dup {
				p.sendTimes[seq] = now
			}
		}
		n, err := packet.EncodeData(p.scratch, &packet.Data{Seq: seq, Timestamp: int32(now), Payload: pl})
		if err != nil {
			panic(fmt.Sprintf("chaos: encode data: %v", err))
		}
		p.transmit(p.scratch[:n])
		progress = true
	}
	// Drain received stream bytes into the running checksum.
	for p.rcv.Available() > 0 {
		n := p.rcv.Read(p.rbuf)
		if n == 0 {
			break
		}
		p.recvHash.write(p.rbuf[:n])
		p.recvBytes += n
		progress = true
	}
	return progress
}

// transmit seals the packet when the run is secure, then hands it to the
// out hook. The scratch slices passed in carry the extra capacity sealing
// needs; prefixing writers prepend their headers after sealing, the same
// layering as the real mux send path.
func (p *Peer) transmit(b []byte) {
	if p.sec != nil {
		if packet.IsControl(b) {
			b = p.sec.SealCtrl(b)
		} else {
			b = p.sec.SealData(b)
		}
	}
	p.out(b)
}

// Deliver is conn.Conn.handleDatagram without the locks: one arriving
// datagram through the real engine at virtual time now.
func (p *Peer) Deliver(now int64, raw []byte) {
	if p.sec != nil {
		var ok bool
		if packet.IsControl(raw) {
			raw, ok = p.sec.OpenCtrl(raw)
		} else {
			raw, ok = p.sec.OpenData(raw)
		}
		if !ok {
			return // forged, corrupt, or a control replay: dropped
		}
	}
	if !packet.IsControl(raw) {
		d, err := packet.DecodeData(raw)
		if err != nil {
			return
		}
		if p.rcv.Free() == 0 {
			return // flow-control overrun: treat as a wire loss
		}
		if p.eng.HandleData(now, d.Seq) {
			p.rcv.Store(d.Seq, d.Payload)
		}
		return
	}
	ctrl, err := packet.DecodeControl(raw)
	if err != nil {
		return
	}
	switch ctrl.Type {
	case packet.TypeACK:
		if a, err := packet.DecodeACK(ctrl); err == nil {
			if p.eng.HandleACK(now, a) > 0 {
				p.snd.Release(p.eng.SndLastAck())
				if p.trackAck {
					p.recordAcked(now)
				}
			}
		}
	case packet.TypeNAK:
		if nak, err := packet.DecodeNAK(ctrl); err == nil {
			p.eng.HandleNAK(now, nak.Losses)
		}
	case packet.TypeACK2:
		p.eng.HandleACK2(now, ctrl.Extra)
	case packet.TypeKeepAlive:
		p.eng.HandleKeepAlive(now)
	case packet.TypeShutdown:
		p.eng.HandleShutdown(now)
	}
}

// recordAcked folds every sequence newly covered by the cumulative ACK into
// the latency series: latency = ack arrival − first transmission.
func (p *Peer) recordAcked(now int64) {
	last := p.eng.SndLastAck()
	for seqno.Cmp(p.ackedTo, last) < 0 {
		if t, ok := p.sendTimes[p.ackedTo]; ok {
			p.ackLat = append(p.ackLat, now-t)
			delete(p.sendTimes, p.ackedTo)
		}
		p.ackedTo = seqno.Inc(p.ackedTo)
	}
}

// flushOutbox serializes and transmits every queued control emission.
func (p *Peer) flushOutbox(now int64) (sent bool) {
	for {
		o, ok := p.eng.PopOut()
		if !ok {
			return sent
		}
		var n int
		var err error
		switch o.Kind {
		case core.OutACK:
			n, err = packet.EncodeACK(p.scratch, &o.ACK, int32(now))
		case core.OutNAK:
			n, err = packet.EncodeNAK(p.scratch, o.Losses, int32(now))
		case core.OutACK2:
			n, err = packet.EncodeACK2(p.scratch, o.AckID, int32(now))
		case core.OutKeepAlive:
			n, err = packet.EncodeSimple(p.scratch, packet.TypeKeepAlive, int32(now))
		case core.OutShutdown:
			n, err = packet.EncodeSimple(p.scratch, packet.TypeShutdown, int32(now))
		}
		if err == nil && n > 0 {
			p.transmit(p.scratch[:n])
			sent = true
		}
	}
}

// Result snapshots the peer's outcome.
func (p *Peer) Result() PeerResult {
	r := PeerResult{
		SentBytes: p.sendOff,
		RecvBytes: p.recvBytes,
		RecvOK:    p.recvBytes == p.wantLen && uint64(p.recvHash) == p.wantHash,
		RecvHash:  uint64(p.recvHash),
		Broken:    p.eng.Broken(),
		BrokenAt:  p.brokenAt,
		Stats:     p.eng.Stats,
	}
	if p.sec != nil {
		r.AuthFails, r.ReplayDrops = p.sec.Drops()
	}
	return r
}
