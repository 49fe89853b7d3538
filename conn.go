package udt

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"udt/internal/core"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/timing"
	"udt/internal/trace"
)

// Connection errors.
var (
	ErrClosed     = errors.New("udt: connection closed")
	ErrPeerDead   = errors.New("udt: peer stopped responding")
	ErrTimeout    = errors.New("udt: handshake timeout")
	errBufferFull = errors.New("udt: receive buffer overrun") // internal

	// errAuthRequired fails a secure dial whose peer answered with the
	// clear protocol while AllowUnauth is off.
	errAuthRequired = errors.New("udt: handshake: peer did not authenticate (set Config.AllowUnauth to permit clear fallback)")
)

// sockWriter abstracts the datagram transport: a dialed Conn owns its
// socket; a multiplexed Conn shares its Mux's.
//
// headroom is the number of bytes the transport needs reserved at the
// front of every datagram buffer, ahead of the encoded UDT packet — a
// multiplexed flow stamps the peer's destination socket ID there. The
// connection reserves it when sizing and encoding, and passes the whole
// buffer (headroom included) to writeTo.
type sockWriter interface {
	writeTo(b []byte, addr net.Addr) (int, error)
	headroom() int
}

// batchWriter is an optional sockWriter upgrade: transports that can
// submit many datagrams to the kernel in one syscall (sendmmsg) implement
// it. writeBatch sends every buffer or returns the first error.
type batchWriter interface {
	writeBatch(bufs [][]byte, addr net.Addr) error
}

// Conn is a UDT connection: a reliable duplex byte stream over UDP.
// It implements net.Conn semantics for Read/Write/Close (deadlines are not
// supported; use Close from another goroutine to abort).
type Conn struct {
	cfg    Config
	raddr  net.Addr
	laddr  net.Addr
	sock   sockWriter
	bw     batchWriter // non-nil when sock supports batched sends
	sw     segWriter   // non-nil when sock supports GSO segment trains
	hr     int         // sock.headroom(), cached: bytes reserved per datagram
	burst  int         // data packets one sender-lock acquisition may claim
	closer func()      // tears down socket/listener registration; run via release
	// released makes the teardown run exactly once, whichever comes first:
	// the peer's shutdown or Close (also after the engine failed on its own).
	released sync.Once

	// shard is the scheduler seat: the connection is a passive poolTask
	// run by its shard's worker, parked on the shard's timing wheel
	// between services. clock is the shard's clock — every deadline the
	// connection reports must be on the wheel's timeline. ownPool is
	// non-nil for dialed connections with a private socket, which own a
	// degenerate one-shard pool torn down on Close.
	shard   *poolShard
	schedSt schedState
	ownPool *connPool
	ownMux  *Mux // non-nil for rendezvous connections with a private socket; guarded by mu

	clock  *timing.SysClock
	ledger *timing.Ledger

	// sec is the connection's Secure UDT sealing state, nil on a clear
	// connection. Its send-side methods run under mu (drainOutboxLocked,
	// claimBurstLocked); its receive-side methods run on the single
	// datagram-delivery goroutine. aead caches sec.AEAD() for the per-
	// packet checks.
	sec  *secure.Session
	aead bool

	mu       sync.Mutex
	core     *core.Conn
	perfRing *trace.Ring // telemetry history behind Perf; nil when disabled
	snd      *core.SndBuffer
	rcv      *core.RcvBuffer
	rdReady  *sync.Cond // receive buffer has data / state change
	wrReady  *sync.Cond // send buffer has room / state change
	closed   chan struct{}
	err      error
	overlap  bool    // a reader's buffer is attached to the receive buffer
	sendCost float64 // EWMA of µs per UDP send (§4.4)

	// rcvBatch is the receive path's control-send batch. handleDatagram is
	// only ever invoked from one goroutine (the dialed socket's reader or
	// the listener's demultiplexer), so one reusable batch suffices; the
	// sender path (runTask) and Close keep their own.
	rcvBatch sendBatch

	// Sender-service working set, touched only by runTask (the shard
	// worker serializes services, so no lock is needed beyond mu inside
	// runTask itself). scratch/lens/burstBufs are the data-burst encode
	// arena, allocated lazily on the first service that has data to send —
	// a receive-only or idle flow never pays for them (at 100k flows the
	// difference is gigabytes).
	sndBatch  sendBatch
	scratch   []byte
	lens      []int
	burstBufs [][]byte

	bytesSent int64
	bytesRecv int64

	// Send-path offload counters. They are atomics, not mu-guarded: the
	// sender loop updates them outside the lock and Stats snapshots them
	// from any goroutine.
	gsoSends     atomic.Int64
	gsoSegments  atomic.Int64
	sendSyscalls atomic.Int64

	// mmaps are file mappings adopted by SendFileZC whose teardown had to
	// be deferred (the connection failed while packets could still alias
	// the mapped region); Close unmaps them once the sender loop is done.
	mmaps [][]byte

	// udpRcvBuf and udpSndBuf are the kernel socket buffer sizes the OS
	// actually granted (0 when the transport is not a UDP socket).
	udpRcvBuf, udpSndBuf int
}

// newConn wires an established connection (post-handshake) onto a
// scheduler shard. The connection is passive: its sender state machine
// runs only when the shard's worker services it — there is no goroutine
// or runtime timer per connection.
func newConn(cfg Config, sock sockWriter, closer func(), laddr, raddr net.Addr, isn, peerISN int32, shard *poolShard, sec *secure.Session) *Conn {
	c := &Conn{
		cfg:    cfg,
		raddr:  raddr,
		laddr:  laddr,
		sock:   sock,
		closer: closer,
		shard:  shard,
		clock:  shard.clock,
		ledger: cfg.Ledger,
		closed: make(chan struct{}),
		sec:    sec,
	}
	c.aead = sec != nil && sec.AEAD()
	c.hr = sock.headroom()
	c.bw, _ = sock.(batchWriter)
	c.sw, _ = sock.(segWriter)
	c.burst = burstSize(cfg.BatchSize, c.hr+cfg.MSS)
	c.core = core.NewConn(cfg.coreConfig(isn), peerISN)
	payload := cfg.MSS - packet.DataHeaderSize
	if c.aead {
		// The Poly1305 tag rides inside the packet's payload budget, so a
		// sealed full packet is still exactly MSS on the wire (GSO trains
		// stay uniform).
		payload -= secure.Overhead
	}
	c.snd = core.NewSndBuffer(cfg.SndBuf, payload, isn)
	c.rcv = core.NewRcvBuffer(cfg.RcvBuf, payload, peerISN)
	c.core.AvailBuf = c.rcv.Free
	var ringSink trace.Sink
	if cfg.PerfHistory > 0 {
		c.perfRing = trace.NewRing(cfg.PerfHistory)
		ringSink = c.perfRing
	}
	if sink := trace.Multi(ringSink, cfg.Trace); sink != nil {
		label := "udt"
		if name := c.core.Controller().Name(); name != "native" {
			label = "udt-" + name
		}
		c.core.SetPerfSink(sink, cfg.PerfEverySYN, cfg.sockID, label, trace.RoleFlow)
	}
	c.rdReady = sync.NewCond(&c.mu)
	c.wrReady = sync.NewCond(&c.mu)
	c.core.Start(c.clock.Now())
	shard.attach(c)
	shard.wake(c) // first service arms the protocol timers on the wheel
	return c
}

// LocalAddr returns the local UDP address.
func (c *Conn) LocalAddr() net.Addr { return c.laddr }

// RemoteAddr returns the peer's UDP address.
func (c *Conn) RemoteAddr() net.Addr { return c.raddr }

// kickSender asks the shard to service this connection: new data to send,
// freed receive buffer, arrived control packet — anything that may change
// what the state machine wants to do next. Safe under c.mu (the shard
// lock nests inside connection locks). Nil-safe for test harnesses that
// drive the send path synchronously without a scheduler.
func (c *Conn) kickSender() {
	if c.shard != nil {
		c.shard.wake(c)
	}
}

// fail records a fatal error and wakes everyone. Callers hold mu.
func (c *Conn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	c.rdReady.Broadcast()
	c.wrReady.Broadcast()
	c.kickSender()
}

// Close shuts the connection down, notifying the peer.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.core.Close()
	var batch sendBatch
	c.drainOutboxLocked(&batch)
	c.failLocked(ErrClosed)
	c.mu.Unlock()
	for _, b := range batch.msgs {
		c.sock.writeTo(b, c.raddr) //nolint:errcheck // best-effort shutdown notice
	}
	c.release()
	// Leave the scheduler: after detach the shard guarantees no service
	// run is in flight or will ever start. A dialed connection also owns
	// its one-shard pool; stop that worker too.
	if c.shard != nil {
		c.shard.detach(c)
	}
	if c.ownPool != nil {
		c.ownPool.close()
	}
	// With sender service finished, nothing can reference a mapped file
	// region anymore; release mappings whose teardown SendFileZC deferred.
	c.mu.Lock()
	mms := c.mmaps
	c.mmaps = nil
	om := c.ownMux
	c.ownMux = nil
	c.mu.Unlock()
	if om != nil {
		// A rendezvous connection owns its whole Mux (udt.Rendezvous built
		// one just for it). The closer above already released this flow from
		// the mux tables, so Close here only reaps the socket and read loop.
		om.Close() //nolint:errcheck
	}
	for _, m := range mms {
		munmapFile(m) //nolint:errcheck // best-effort address-space release
	}
	return nil
}

// release runs the teardown hook once: it unregisters the flow from its
// mux, or closes a dialed connection's private transport, which unblocks
// that transport's read loop.
func (c *Conn) release() {
	if c.closer != nil {
		c.released.Do(c.closer)
	}
}

// Write queues p on the send buffer, blocking while it is full. It returns
// len(p) unless the connection dies.
func (c *Conn) Write(p []byte) (int, error) {
	written := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for written < len(p) {
		if c.err != nil && c.core.Closed() {
			return written, c.err
		}
		n := c.snd.Write(p[written:])
		if n > 0 {
			written += n
			c.kickSender()
			continue
		}
		c.wrReady.Wait()
	}
	return written, nil
}

// writeZC queues p on the send buffer without copying: packet slots alias
// sub-slices of p, which therefore must stay valid and unmodified until
// every queued byte has been acknowledged (SendFileZC waits for exactly
// that before releasing its file mapping). Like Write it blocks while the
// buffer is full and returns len(p) unless the connection dies.
func (c *Conn) writeZC(p []byte) (int, error) {
	written := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for written < len(p) {
		if c.err != nil && c.core.Closed() {
			return written, c.err
		}
		n := c.snd.WriteZC(p[written:])
		if n > 0 {
			written += n
			c.kickSender()
			continue
		}
		c.wrReady.Wait()
	}
	return written, nil
}

// waitAcked blocks until every queued byte has been acknowledged by the
// peer, or the connection fails. A non-nil return means the drain did
// not complete: packet slots may still alias caller memory somewhere in
// the teardown path.
func (c *Conn) waitAcked() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && c.snd.Pending() > 0 {
		c.wrReady.Wait()
	}
	return c.err
}

// adoptMapping hands a file mapping to the connection for teardown at
// Close, used when SendFileZC cannot prove the sender loop is done with
// the mapped region.
func (c *Conn) adoptMapping(m []byte) {
	c.mu.Lock()
	c.mmaps = append(c.mmaps, m)
	c.mu.Unlock()
}

// Read copies received stream bytes into p, blocking until at least one
// byte is available. When the buffer is empty, p itself is attached to the
// protocol buffer so arriving packets land in it directly — the overlapped
// IO of §4.3.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if n := c.rcv.Available(); n > 0 {
			got := c.rcv.Read(p)
			// Freed buffer space reopens the advertised window; service the
			// engine so the reopening ACK goes out now rather than at the
			// next scheduled wake — a parked idle flow sleeps all the way to
			// its EXP deadline, far too late to unstall the peer.
			c.kickSender()
			return got, nil
		}
		if c.err != nil || c.core.Closed() {
			err := c.err
			if err == nil || err == ErrClosed {
				err = io.EOF
			}
			return 0, err
		}
		attached := !c.overlap && c.rcv.AttachUser(p)
		if attached {
			c.overlap = true
		}
		c.rdReady.Wait()
		if attached {
			c.overlap = false
			direct := c.rcv.DetachUser()
			if direct > 0 {
				n := direct
				if rest := c.rcv.Read(p[direct:]); rest > 0 {
					n += rest
				}
				c.kickSender() // window may have reopened; see above
				return n, nil
			}
		}
	}
}

// muxCounterSource lets multiplexed flows surface their shared socket's
// demultiplexer drop counters in Stats.
type muxCounterSource interface {
	muxCounters() (unknownDest, shortDatagram uint64)
}

// secCounterSource lets multiplexed flows surface their shared socket's
// pre-connection authentication counters in Stats.
type secCounterSource interface {
	secCounters() (authRejects, cookieSent uint64)
}

// Stats returns a snapshot of the connection's protocol counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	ctrl := c.core.Controller()
	var rate float64
	if p := ctrl.Period(); p > 0 {
		rate = float64(c.cfg.MSS) * 8 / p // bits/µs ≡ Mb/s
	}
	s := Stats{
		Stats:          c.core.Stats,
		RTT:            time.Duration(c.core.RTT()) * time.Microsecond,
		SendRateMbps:   rate,
		BytesSent:      c.bytesSent,
		BytesRecv:      c.bytesRecv,
		UDPRcvBufBytes: c.udpRcvBuf,
		UDPSndBufBytes: c.udpSndBuf,
		CCName:         ctrl.Name(),
		CCPeriodUs:     ctrl.Period(),
		CCWindowPkts:   ctrl.Window(),
	}
	c.mu.Unlock()
	if mc, ok := c.sock.(muxCounterSource); ok {
		s.MuxUnknownDest, s.MuxShortDatagram = mc.muxCounters()
	}
	if c.sec != nil {
		af, rp := c.sec.Drops()
		s.AuthRejects += af
		s.ReplayDrops = rp
	}
	if sc, ok := c.sock.(secCounterSource); ok {
		ar, cs := sc.secCounters()
		s.AuthRejects += ar
		s.CookieSent = cs
	}
	if gc, ok := c.sock.(groCounterSource); ok {
		s.GROReads, s.GROSegments = gc.groCounters()
	}
	s.GSOEnabled = c.sw != nil && c.sw.offloadActive()
	s.GSOSends = c.gsoSends.Load()
	s.GSOSegments = c.gsoSegments.Load()
	s.SendSyscalls = c.sendSyscalls.Load()
	s.Goroutines = noteGoroutines()
	s.PeakGoroutines = int(peakGoroutines.Load())
	return s
}

// Perf returns the connection's recent telemetry history, oldest to newest:
// one PerfRecord per PerfEverySYN SYN intervals, up to the PerfHistory most
// recent. It returns nil when telemetry is disabled (PerfHistory < 0). The
// returned slice is a snapshot; feed it to trace.WriteCSV/WriteJSONL or
// serve it with trace.Handler.
func (c *Conn) Perf() []PerfRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perfRing == nil {
		return nil
	}
	return c.perfRing.Snapshot()
}

// LastPerf returns the most recent telemetry sample, if any — the cheap way
// to poll a live connection without copying the whole history.
func (c *Conn) LastPerf() (PerfRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.perfRing == nil {
		return PerfRecord{}, false
	}
	return c.perfRing.Last()
}

// sendBatch accumulates encoded control datagrams in a reusable arena.
// Once the arena and message list have grown to their working-set size, a
// drain-and-send pass allocates nothing.
type sendBatch struct {
	arena []byte
	msgs  [][]byte // aliases into arena, one per datagram
}

func (b *sendBatch) reset() {
	b.arena = b.arena[:0]
	b.msgs = b.msgs[:0]
}

// grab reserves n bytes of arena. If the arena must grow, messages already
// recorded keep aliasing the old block — they remain valid until reset.
func (b *sendBatch) grab(n int) []byte {
	off := len(b.arena)
	if off+n > cap(b.arena) {
		grown := make([]byte, off, 2*(off+n)+64)
		copy(grown, b.arena)
		b.arena = grown
	}
	b.arena = b.arena[:off+n]
	return b.arena[off : off+n]
}

// drainOutboxLocked encodes all queued control emissions into b, each
// sized exactly per emission kind (a bare control header for
// ACK2/keep-alive/shutdown, header+24 for a full ACK, the compressed
// loss-list length for a NAK) plus the transport's headroom, into which a
// multiplexed flow later stamps the destination socket ID. Callers hold
// mu; the batch is transmitted after unlock so the socket write never runs
// under the connection lock.
func (c *Conn) drainOutboxLocked(b *sendBatch) {
	now32 := int32(c.clock.Now())
	hr := c.hr
	for {
		o, ok := c.core.PopOut()
		if !ok {
			return
		}
		var size int
		switch o.Kind {
		case core.OutACK:
			size = packet.CtrlHeaderSize + packet.FullACKBody
		case core.OutNAK:
			size = packet.NAKSize(o.Losses)
		default: // ACK2, keep-alive, shutdown: bare control header
			size = packet.CtrlHeaderSize
		}
		if c.sec != nil {
			size += secure.CtrlOverhead
		}
		buf := b.grab(hr + size)
		var n int
		var err error
		switch o.Kind {
		case core.OutACK:
			n, err = packet.EncodeACK(buf[hr:], &o.ACK, now32)
		case core.OutNAK:
			n, err = packet.EncodeNAK(buf[hr:], o.Losses, now32)
		case core.OutACK2:
			n, err = packet.EncodeACK2(buf[hr:], o.AckID, now32)
		case core.OutKeepAlive:
			n, err = packet.EncodeSimple(buf[hr:], packet.TypeKeepAlive, now32)
		case core.OutShutdown:
			n, err = packet.EncodeSimple(buf[hr:], packet.TypeShutdown, now32)
		}
		if err == nil && n > 0 {
			end := hr + n
			if c.sec != nil {
				// Seal in place; the grab above reserved the trailer room.
				// The full-capacity reslice is load-bearing: buf's spare
				// capacity aliases the arena's free tail.
				end = hr + len(c.sec.SealCtrl(buf[hr:end:len(buf)]))
			}
			b.msgs = append(b.msgs, buf[:end])
		}
	}
}

// burstSize bounds the data burst one sender-lock acquisition may claim:
// the configured batch size (clamped in Config.fill), further capped so a
// full train of stride-sized datagrams fits one 64 KB GSO super-datagram
// and the kernel's per-send segment limit.
func burstSize(batch, stride int) int {
	if batch < 1 {
		batch = 1
	}
	if batch > maxGSOSegments {
		batch = maxGSOSegments
	}
	if m := maxUDPPayload / stride; batch > m {
		batch = m
	}
	if batch < 1 {
		batch = 1
	}
	return batch
}

// claimBurstLocked claims and encodes up to c.burst data packets into
// scratch (packet i at offset i*(headroom+MSS), encoded after the
// transport's headroom bytes, encoded length in lens[i]). The first
// packet follows §4.1's one-packet-per-iteration rule; further packets are
// claimed only while the pacing schedule is already due within the measured
// cost of one UDP send — at that point the syscall, not the pacer, is the
// bottleneck, and splitting the burst across lock round-trips would only
// add overhead. The same rule is the pacer's catch-up: a service that runs
// late (the shard's timer woke a millisecond after a 12 µs gap) finds every
// packet the schedule owes already due and sends them as one train. It
// returns the claim count and the next wakeup deadline. Callers hold mu.
func (c *Conn) claimBurstLocked(now int64, scratch []byte, lens []int) (n int, wake int64) {
	// NextWake, not NextTimer: a quiescent flow parks until its EXP
	// keep-alive deadline instead of every ACK/NAK/SYN period — the ~30×
	// wakeup reduction that lets one shard hold tens of thousands of idle
	// flows. Any event that ends quiescence (app write, arriving packet)
	// kicks the connection, which re-derives an earlier wake here.
	wake = c.core.NextWake()
	stride := c.hr + c.cfg.MSS
	for n < c.burst {
		newAvail := seqno.Cmp(c.snd.NextWriteSeq(), seqno.Inc(c.core.CurSeq())) > 0
		seq, decision := c.core.NextSend(now, newAvail)
		if decision != core.SendData && decision != core.SendRetrans {
			switch decision {
			case core.WaitPacing:
				if t := c.core.NextSendTime(); t < wake {
					wake = t
				}
			case core.WaitFrozen:
				if t := c.core.Controller().FreezeEnd(); t < wake {
					wake = t
				}
			}
			return n, wake
		}
		pl, ok := c.snd.Packet(seq)
		if !ok {
			// The engine committed seq but the buffer cannot serve it;
			// reconsider immediately.
			return n, now
		}
		buf := scratch[n*stride+c.hr : (n+1)*stride]
		t0 := c.ledger.Start()
		m, _ := packet.EncodeData(buf, &packet.Data{Seq: seq, Timestamp: int32(now), Payload: pl})
		if c.aead {
			// Seal in the burst arena: payload encrypted in place, tag
			// appended. A full packet grows back to exactly MSS, so the
			// GSO all-MSS train check downstream is unaffected; a
			// retransmission re-seals byte-identically (the timestamp is
			// outside AEAD coverage), so the reused nonce carries the
			// same message.
			m = len(c.sec.SealData(buf[:m]))
		}
		lens[n] = m
		c.ledger.Stop(timing.BucketPack, t0)
		n++
		if c.core.NextSendTime() > now+int64(c.sendCost) {
			return n, now
		}
	}
	return n, now
}

// sched implements poolTask.
func (c *Conn) sched() *schedState { return &c.schedSt }

// runTask is one sender service — the body of §4.8's sender thread,
// re-cast as a scheduler callback: it services the protocol timers, emits
// control packets the engine queued, retransmits losses first, and paces
// data packets out per the engine's schedule. Each service drains the
// control outbox and claims a data burst under one lock acquisition, then
// transmits everything without the lock. The returned wake is when the
// engine next needs service (taskNever once the connection is finished).
func (c *Conn) runTask() int64 {
	c.mu.Lock()
	if c.err != nil {
		// Failed or closed: Close drains the final shutdown notices.
		c.mu.Unlock()
		return taskNever
	}
	now := c.clock.Now()
	c.core.Advance(now)
	c.sndBatch.reset()
	c.drainOutboxLocked(&c.sndBatch)
	if c.core.Broken() {
		c.failLocked(ErrPeerDead)
		c.mu.Unlock()
		return taskNever
	}
	var nData int
	var wake int64
	if c.scratch == nil && c.snd.Pending() > 0 {
		// First service with data queued: allocate the burst encode arena.
		// Loss/retransmission state implies earlier data services, so a
		// nil arena also proves there is nothing to retransmit — flows
		// that never send (or haven't yet) skip both the allocation and
		// the claim walk entirely.
		stride := c.hr + c.cfg.MSS
		c.scratch = make([]byte, c.burst*stride)
		c.lens = make([]int, c.burst)
		c.burstBufs = make([][]byte, 0, c.burst)
	}
	if c.scratch != nil {
		nData, wake = c.claimBurstLocked(now, c.scratch, c.lens)
	} else {
		wake = c.core.NextWake()
	}
	closedNow := c.core.Closed() && c.snd.Pending() == 0
	c.mu.Unlock()

	if err := c.sendCtrlBatch(&c.sndBatch); err != nil {
		c.mu.Lock()
		c.failLocked(fmt.Errorf("udt: send: %w", err))
		c.mu.Unlock()
		return taskNever
	}
	if nData > 0 {
		t0 := time.Now()
		sent, err := c.sendDataBurst(c.scratch, c.lens, nData, &c.burstBufs)
		if err != nil {
			c.mu.Lock()
			c.failLocked(fmt.Errorf("udt: send: %w", err))
			c.mu.Unlock()
			return taskNever
		}
		cost := float64(time.Since(t0).Microseconds()) / float64(nData)
		c.mu.Lock()
		c.bytesSent += int64(sent)
		// §4.4: never let rate control tune the period below the real
		// per-packet send time.
		if c.sendCost == 0 {
			c.sendCost = cost
		} else {
			c.sendCost += (cost - c.sendCost) / 8
		}
		c.core.Controller().SetMinPeriod(c.sendCost)
		c.mu.Unlock()
		return 0 // more work may be ready; re-queue immediately
	}
	if closedNow {
		return taskNever
	}
	return wake
}

// sendDataBurst transmits n encoded data packets from scratch (laid out
// by claimBurstLocked) in as few syscalls as the transport allows, in
// descending preference:
//
//  1. GSO: a run of full-size packets (every wire datagram but the last
//     exactly headroom+MSS) goes out as ONE sendmsg carrying a
//     UDP_SEGMENT train the kernel segments — the §4.1 per-packet cost
//     amortized over up to 44 packets;
//  2. sendmmsg: one syscall submitting the burst as separate datagrams;
//  3. portable: one writeTo per packet.
//
// burstBufs is the caller's reusable slice for assembling the datagram
// list. Returns the payload bytes handed to the socket.
func (c *Conn) sendDataBurst(scratch []byte, lens []int, n int, burstBufs *[][]byte) (int, error) {
	stride := c.hr + c.cfg.MSS
	sent := 0
	bufs := (*burstBufs)[:0]
	for i := 0; i < n; i++ {
		bufs = append(bufs, scratch[i*stride:i*stride+c.hr+lens[i]])
		sent += lens[i]
	}
	*burstBufs = bufs

	if c.sw != nil && n > 1 {
		segOK := true
		for i := 0; i < n-1; i++ {
			if lens[i] != c.cfg.MSS {
				segOK = false // a short mid-burst packet breaks the train
				break
			}
		}
		if segOK {
			t0 := c.ledger.Start()
			ok, err := c.sw.writeSegments(bufs, stride, c.raddr)
			c.ledger.Stop(timing.BucketUDPWrite, t0)
			if ok {
				if err != nil {
					return sent, err
				}
				c.sendSyscalls.Add(1)
				c.gsoSends.Add(1)
				c.gsoSegments.Add(int64(n))
				return sent, nil
			}
		}
	}
	if c.bw != nil && n > 1 {
		t0 := c.ledger.Start()
		err := c.bw.writeBatch(bufs, c.raddr)
		c.ledger.Stop(timing.BucketUDPWrite, t0)
		c.sendSyscalls.Add(1)
		return sent, err
	}
	sent = 0
	for i := 0; i < n; i++ {
		if _, err := c.sockWrite(scratch[i*stride : i*stride+c.hr+lens[i]]); err != nil {
			return sent, err
		}
		sent += lens[i]
	}
	return sent, nil
}

func (c *Conn) sockWrite(b []byte) (int, error) {
	t0 := c.ledger.Start()
	n, err := c.sock.writeTo(b, c.raddr)
	c.ledger.Stop(timing.BucketUDPWrite, t0)
	c.sendSyscalls.Add(1)
	return n, err
}

// sendCtrlBatch transmits a drained control batch — one sendmmsg when the
// transport supports batching and there is more than one datagram.
func (c *Conn) sendCtrlBatch(b *sendBatch) error {
	if c.bw != nil && len(b.msgs) > 1 {
		t0 := c.ledger.Start()
		err := c.bw.writeBatch(b.msgs, c.raddr)
		c.ledger.Stop(timing.BucketUDPWrite, t0)
		c.sendSyscalls.Add(1)
		return err
	}
	for _, m := range b.msgs {
		if _, err := c.sockWrite(m); err != nil {
			return err
		}
	}
	return nil
}

// handleDatagram processes one UDP datagram addressed to this connection,
// stamping its arrival at the moment of processing. The mux read loop
// calls handleDatagramAt instead with the batch read time: stamping each
// packet of a recvmmsg batch (or GRO train) individually would record the
// engine's per-packet processing time — a few µs of CPU — as inter-arrival
// spacing, inflating the §3.2 arrival-speed and §3.4 capacity estimators
// by orders of magnitude on fast links.
func (c *Conn) handleDatagram(raw []byte) {
	c.handleDatagramAt(raw, c.clock.Now())
}

// handleDatagramAt processes one UDP datagram that arrived at time now on
// the connection's clock.
func (c *Conn) handleDatagramAt(raw []byte, now int64) {
	if c.sec != nil {
		// Open before the engine sees anything. Data packets are sealed
		// only in AEAD mode; control packets are always sealed and
		// replay-checked on a secure connection — except handshakes, which
		// predate the session (a duplicate response is ignored below
		// anyway). Failures drop the datagram and count in Stats.
		if packet.IsControl(raw) {
			if !packet.IsHandshake(raw) {
				opened, ok := c.sec.OpenCtrl(raw)
				if !ok {
					return
				}
				raw = opened
			}
		} else if c.aead {
			opened, ok := c.sec.OpenData(raw)
			if !ok {
				return
			}
			raw = opened
		}
	}
	if !packet.IsControl(raw) {
		t0 := c.ledger.Start()
		d, err := packet.DecodeData(raw)
		c.ledger.Stop(timing.BucketUnpack, t0)
		if err != nil {
			return
		}
		c.mu.Lock()
		// A full receive buffer means flow control was overrun (or the
		// reader is stuck): treat the packet as lost on the wire; the
		// protocol will retransmit it once space reopens (§3.2).
		if c.rcv.Free() == 0 {
			c.mu.Unlock()
			return
		}
		t0 = c.ledger.Start()
		fresh := c.core.HandleData(now, d.Seq)
		c.ledger.Stop(timing.BucketMeasure, t0)
		if fresh {
			c.rcv.Store(d.Seq, d.Payload)
			c.bytesRecv += int64(len(raw))
			if c.rcv.Available() > 0 {
				c.rdReady.Broadcast()
			}
		}
		c.rcvBatch.reset()
		c.drainOutboxLocked(&c.rcvBatch)
		c.mu.Unlock()
		c.sendCtrlBatch(&c.rcvBatch) //nolint:errcheck // control losses are repaired by timers
		// Arriving data ends quiescence: a flow parked until its EXP
		// deadline must be rescheduled onto the ACK/NAK cadence, and only
		// a service run re-derives its wake deadline. For a flow already
		// awake this is a cheap state check on the shard.
		c.kickSender()
		return
	}

	ctrl, err := packet.DecodeControl(raw)
	if err != nil {
		return
	}
	c.mu.Lock()
	t0 := c.ledger.Start()
	kick := true
	switch ctrl.Type {
	case packet.TypeACK:
		if a, err := packet.DecodeACK(ctrl); err == nil {
			if newly := c.core.HandleACK(now, a); newly > 0 {
				c.snd.Release(c.core.SndLastAck())
				c.wrReady.Broadcast()
			}
		}
	case packet.TypeNAK:
		if nak, err := packet.DecodeNAK(ctrl); err == nil {
			t1 := c.ledger.Start()
			c.core.HandleNAK(now, nak.Losses)
			c.ledger.Stop(timing.BucketLossProc, t1)
		}
	case packet.TypeACK2:
		c.core.HandleACK2(now, ctrl.Extra)
	case packet.TypeKeepAlive:
		// A keep-alive moves no deadline and queues no output, so the
		// service wake the flow is parked on stays right: no kick.
		c.core.HandleKeepAlive(now)
		kick = false
	case packet.TypeShutdown:
		c.core.HandleShutdown(now)
		c.failLocked(ErrClosed)
	case packet.TypeHandshake:
		// Duplicate handshake response (our ACK of it was lost): ignore;
		// the listener answers duplicates for accepted conns.
	}
	c.ledger.Stop(timing.BucketProcessCtrl, t0)
	c.rcvBatch.reset()
	c.drainOutboxLocked(&c.rcvBatch)
	peerClosed := c.core.Closed()
	c.mu.Unlock()
	c.sendCtrlBatch(&c.rcvBatch) //nolint:errcheck // control losses are repaired by timers
	if peerClosed {
		c.release()
	}
	if kick {
		c.kickSender()
	}
}

// Drained reports whether every written byte has been sent and
// acknowledged — useful before an abrupt Close. A failed connection
// (closed, or peer declared dead) reports drained: no further progress is
// possible, so waiting on it would never terminate.
func (c *Conn) Drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return true
	}
	return c.snd.Pending() == 0 && c.core.Unacked() == 0
}
