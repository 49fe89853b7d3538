package udt

import (
	"net"
	"sync"
	"testing"
	"time"

	"udt/internal/core"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/timing"
	"udt/internal/trace"
)

// discardSock swallows datagrams; it stands in for the UDP socket so the
// sender path can be driven synchronously, without a peer or a goroutine.
type discardSock struct{ writes int }

func (d *discardSock) writeTo(b []byte, _ net.Addr) (int, error) {
	d.writes++
	return len(b), nil
}

func (d *discardSock) headroom() int { return 0 }

// gsoDiscardSock upgrades discardSock with the batch and segment-train
// interfaces, so the alloc gates cover the GSO pack-and-submit path
// without needing a kernel that offloads.
type gsoDiscardSock struct {
	discardSock
	trains, segs int
}

func (g *gsoDiscardSock) writeBatch(bufs [][]byte, _ net.Addr) error {
	g.writes += len(bufs)
	return nil
}

func (g *gsoDiscardSock) writeSegments(bufs [][]byte, segSize int, _ net.Addr) (bool, error) {
	g.trains++
	g.segs += len(bufs)
	return true, nil
}

func (g *gsoDiscardSock) offloadActive() bool { return true }

// newSendPathConn assembles a Conn exactly as newConn does, minus the
// scheduler shard (c.shard stays nil; kickSender tolerates that), so tests
// can drive claimBurstLocked/drainOutboxLocked deterministically from one
// goroutine. With traced set, a perfmon ring is
// attached just as newConn attaches one, so the alloc gates cover telemetry.
// cc selects the congestion controller (nil = native), so the gates cover
// every registered law's interface dispatch.
func newSendPathConn(sock sockWriter, traced bool, cc CongestionFactory, sec *secure.Session) *Conn {
	cfg := Config{CC: cc}
	cfg.fill()
	c := &Conn{
		cfg:   cfg,
		sock:  sock,
		clock: timing.NewSysClock(),
		sec:   sec,
	}
	c.aead = sec != nil && sec.AEAD()
	c.hr = sock.headroom()
	c.bw, _ = sock.(batchWriter)
	c.sw, _ = sock.(segWriter)
	c.burst = burstSize(cfg.BatchSize, c.hr+cfg.MSS)
	c.core = core.NewConn(cfg.coreConfig(0), 0)
	payload := cfg.MSS - packet.DataHeaderSize
	if c.aead {
		payload -= secure.Overhead
	}
	c.snd = core.NewSndBuffer(cfg.SndBuf, payload, 0)
	c.rcv = core.NewRcvBuffer(cfg.RcvBuf, payload, 0)
	c.core.AvailBuf = c.rcv.Free
	if traced {
		c.perfRing = trace.NewRing(cfg.PerfHistory)
		c.core.SetPerfSink(c.perfRing, cfg.PerfEverySYN, 0, "udt", trace.RoleFlow)
	}
	c.rdReady = sync.NewCond(&c.mu)
	c.wrReady = sync.NewCond(&c.mu)
	c.core.Start(c.clock.Now())
	return c
}

// sendCycle is one synchronous turn of the sender: buffer one packet of
// data, claim and encode a burst, push it through the socket, then feed the
// engine an ACK for everything in flight (the role the peer plays) and
// drain the resulting control traffic. It exercises every per-packet
// operation of the real send path.
func sendCycle(c *Conn, data []byte, batch *sendBatch, scratch []byte, lens []int, burst *[][]byte) {
	c.mu.Lock()
	now := c.clock.Now()
	c.core.Advance(now)
	c.snd.Write(data)
	n, _ := c.claimBurstLocked(now, scratch, lens)
	c.mu.Unlock()
	if n > 0 {
		c.sendDataBurst(scratch, lens, n, burst) //nolint:errcheck
	}
	c.mu.Lock()
	ack := packet.ACK{
		Seq:      seqno.Inc(c.core.CurSeq()),
		RTT:      100,
		RTTVar:   10,
		AvailBuf: int32(c.cfg.RcvBuf),
	}
	if newly := c.core.HandleACK(now, ack); newly > 0 {
		c.snd.Release(c.core.SndLastAck())
	}
	batch.reset()
	c.drainOutboxLocked(batch)
	c.mu.Unlock()
	for _, b := range batch.msgs {
		c.sockWrite(b) //nolint:errcheck
	}
}

// TestSenderPathAllocs is the regression gate for the real transport's
// zero-allocation invariant: once warmed up, sending a data packet — encode
// into the reusable scratch burst, socket write, ACK bookkeeping, control
// drain into the reusable batch arena — allocates nothing. The connection
// runs with a perfmon ring attached (the default newConn configuration), so
// the gate also proves telemetry — including the CC name and window fields —
// adds 0 allocs/packet on the hot path. Every registered congestion
// controller is gated, since the engine now reaches its law through the
// congestion.Controller interface on each packet sent and ACK handled.
func TestSenderPathAllocs(t *testing.T) {
	for _, secureOn := range []bool{false, true} {
		for _, name := range CongestionControls() {
			run := name
			if secureOn {
				run = "psk-aead/" + name
			}
			t.Run(run, func(t *testing.T) {
				cc, err := CongestionControl(name)
				if err != nil {
					t.Fatal(err)
				}
				var sess *secure.Session
				if secureOn {
					sess, _ = testSessionPair(true)
				}
				sock := &discardSock{}
				c := newSendPathConn(sock, true, cc, sess)
				var batch sendBatch
				scratch := make([]byte, c.burst*(c.hr+c.cfg.MSS))
				lens := make([]int, c.burst)
				burst := make([][]byte, 0, c.burst)
				payload := c.cfg.MSS - packet.DataHeaderSize
				if secureOn {
					payload -= secure.Overhead
				}
				data := make([]byte, payload)

				// Warm up: grow the batch arena, the engine's outbox and the
				// ACK history window to steady state.
				for i := 0; i < 64; i++ {
					sendCycle(c, data, &batch, scratch, lens, &burst)
				}
				sentBefore := c.core.Stats.PktsSent
				avg := testing.AllocsPerRun(500, func() {
					sendCycle(c, data, &batch, scratch, lens, &burst)
				})
				sent := c.core.Stats.PktsSent - sentBefore
				if sent < 500 {
					t.Fatalf("send path stalled during measurement: only %d packets sent", sent)
				}
				if avg != 0 {
					t.Fatalf("send path allocates %.2f objects per packet, want 0", avg)
				}
				// The measured cycles may all fall inside one SYN interval;
				// cross a SYN boundary explicitly to prove the sampler really
				// was attached and live.
				c.mu.Lock()
				c.core.Advance(c.clock.Now() + 2*c.cfg.SYN.Microseconds())
				c.mu.Unlock()
				if c.perfRing.Total() == 0 {
					t.Fatal("perf ring recorded nothing; the traced gate proved nothing")
				}
				if r, ok := c.perfRing.Last(); !ok || r.CCName != name {
					t.Fatalf("perf record carries cc %q, want %q", r.CCName, name)
				}
			})
		}
	}
}

// testSessionPair builds the two ends of one Secure UDT session over a
// fixed key and nonces: local is the client side, peer the server side.
// Both ends start their epoch trackers at ISN 0, matching the zero ISNs
// newSendPathConn wires.
func testSessionPair(aead bool) (local, peer *secure.Session) {
	k := secure.DeriveKeys([]byte("alloc-test pre-shared key 32by.."))
	cn := []byte("client-nonce-16b")
	sn := []byte("server-nonce-16b")
	local = secure.NewSession(k, cn, sn, true, 0, 0, aead)
	peer = secure.NewSession(k, cn, sn, false, 0, 0, aead)
	return local, peer
}

// TestSecureRecvPathAllocs gates the receive side of the sealed channel:
// opening a sealed data packet and running it through the full
// handleDatagramAt path — AEAD open, engine bookkeeping, control drain —
// must allocate nothing. The packet is a duplicate every iteration, which
// exercises the dup-triggered re-ACK emission too; retransmissions seal
// byte-identically, so one sealed image is recopied per run (opening
// decrypts in place).
func TestSecureRecvPathAllocs(t *testing.T) {
	sess, peer := testSessionPair(true)
	sock := &discardSock{}
	c := newSendPathConn(sock, false, nil, sess)

	payload := make([]byte, c.cfg.MSS-packet.DataHeaderSize-secure.Overhead)
	pkt := make([]byte, c.cfg.MSS)
	n, err := packet.EncodeData(pkt, &packet.Data{Seq: 0, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	sealed := append([]byte(nil), peer.SealData(pkt[:n])...)
	if len(sealed) != c.cfg.MSS {
		t.Fatalf("sealed full packet is %d bytes, want MSS %d", len(sealed), c.cfg.MSS)
	}
	buf := make([]byte, len(sealed))
	deliver := func() {
		copy(buf, sealed)
		c.handleDatagram(buf)
	}
	for i := 0; i < 16; i++ {
		deliver() // warm the receive-side control batch arena
	}
	if avg := testing.AllocsPerRun(500, deliver); avg != 0 {
		t.Fatalf("secure receive path allocates %.2f objects per packet, want 0", avg)
	}
	af, _ := sess.Drops()
	if af != 0 {
		t.Fatalf("authentic packets failed to open %d times", af)
	}
	if got := c.core.Stats.PktsRecv; got < 500 {
		t.Fatalf("engine saw only %d packets; the open path short-circuited", got)
	}
}

// TestGSOPackAllocs gates the GSO pack-and-submit path: assembling a full
// burst of MSS-size packets into a segment train — buffer aliasing, the
// equal-size eligibility scan, writeSegments dispatch and the offload
// counters — must allocate nothing, preserving the sender's
// zero-allocation invariant on the offloaded path too.
func TestGSOPackAllocs(t *testing.T) {
	sock := &gsoDiscardSock{}
	c := newSendPathConn(sock, false, nil, nil)
	stride := c.hr + c.cfg.MSS
	scratch := make([]byte, c.burst*stride)
	lens := make([]int, c.burst)
	burst := make([][]byte, 0, c.burst)
	payload := make([]byte, c.cfg.MSS-packet.DataHeaderSize)
	for i := 0; i < c.burst; i++ {
		m, err := packet.EncodeData(scratch[i*stride+c.hr:(i+1)*stride], &packet.Data{Seq: int32(i), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		lens[i] = m
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := c.sendDataBurst(scratch, lens, c.burst, &burst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("GSO pack path allocates %.2f objects per burst, want 0", avg)
	}
	if sock.trains == 0 || sock.segs == 0 {
		t.Fatal("segment-train path was never taken; the gate proved nothing")
	}
	if got := c.gsoSends.Load(); got == 0 {
		t.Fatal("GSO send counter did not advance")
	}
}

// BenchmarkSenderPacket measures the real send path end to end — encode
// burst, socket write, ACK bookkeeping, control drain — in ns and allocs
// per data packet (the socket is a stub, so this is pure protocol cost).
func BenchmarkSenderPacket(b *testing.B) {
	benchmarkSenderPacket(b, false)
}

// BenchmarkSenderPacketTraced is BenchmarkSenderPacket with the perfmon
// ring attached — the BENCH entry proving telemetry costs nothing on the
// hot path (0 allocs/packet, ns/packet within noise of the untraced run).
func BenchmarkSenderPacketTraced(b *testing.B) {
	benchmarkSenderPacket(b, true)
}

func benchmarkSenderPacket(b *testing.B, traced bool) {
	sock := &discardSock{}
	c := newSendPathConn(sock, traced, nil, nil)
	var batch sendBatch
	scratch := make([]byte, c.burst*(c.hr+c.cfg.MSS))
	lens := make([]int, c.burst)
	burst := make([][]byte, 0, c.burst)
	data := make([]byte, c.cfg.MSS-packet.DataHeaderSize)
	for i := 0; i < 64; i++ {
		sendCycle(c, data, &batch, scratch, lens, &burst)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendCycle(c, data, &batch, scratch, lens, &burst)
	}
}

// TestDrainOutboxSizing checks the per-kind arena sizing: every control
// emission must encode successfully into the exact buffer the batch grants
// it, including NAKs with long compressed loss lists.
func TestDrainOutboxSizing(t *testing.T) {
	sock := &discardSock{}
	c := newSendPathConn(sock, false, nil, nil)
	now := c.clock.Now()

	// Provoke one of each control kind. Losses with many disjoint ranges
	// stress the NAK sizing; receiving data provokes ACK generation at the
	// next SYN boundary.
	c.mu.Lock()
	c.core.HandleData(now, 0)
	c.core.HandleData(now, 50) // gap -> NAK with a compressed range
	c.core.Advance(now + 11_000)
	var batch sendBatch
	c.drainOutboxLocked(&batch)
	c.mu.Unlock()
	if len(batch.msgs) == 0 {
		t.Fatal("no control emissions drained")
	}
	for _, m := range batch.msgs {
		if !packet.IsControl(m) {
			t.Fatalf("drained message is not a control packet: % x", m)
		}
		if _, err := packet.DecodeControl(m); err != nil {
			t.Fatalf("drained control packet does not decode: %v", err)
		}
	}
}

// TestSocketPathAllocs gates the batched socket path on a real loopback
// pair: a sendmmsg batch, a GSO train (where the kernel offloads) and a
// recvmmsg read each run without allocating. Platforms without the batched
// path skip.
func TestSocketPathAllocs(t *testing.T) {
	newSock := func() *net.UDPConn {
		u, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		return u
	}
	src, dst := newSock(), newSock()
	w := newBatchSender(src, true)
	r := newBatchReader(dst, 8, true, nil)
	if w == nil || r == nil {
		t.Skip("no batched socket path on this platform")
	}
	to := dst.LocalAddr()
	const seg = 1200
	train := make([]byte, 4*seg)
	bufs := [][]byte{train[:seg], train[seg : 2*seg], train[2*seg : 3*seg], train[3*seg:]}
	got := 0
	deliver := func(raw []byte, _ net.Addr, _ time.Time) { got += len(raw) }

	// Each run sends one datagram and reads it back.
	if n := testing.AllocsPerRun(100, func() {
		if err := w.writeBatch(bufs[:1], to); err != nil {
			t.Fatal(err)
		}
		if err := r.readBatch(deliver); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writeBatch+readBatch allocate %.1f times per call, want 0", n)
	}
	if got == 0 {
		t.Fatal("nothing read back")
	}
	sw, ok := w.(segWriter)
	if !ok || !sw.offloadActive() {
		t.Skip("kernel withholds UDP_SEGMENT; GSO train not gated")
	}
	if n := testing.AllocsPerRun(100, func() {
		if ok, err := sw.writeSegments(bufs, seg, to); !ok || err != nil {
			t.Fatalf("writeSegments: ok=%v err=%v", ok, err)
		}
		if err := r.readBatch(deliver); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writeSegments+readBatch allocate %.1f times per call, want 0", n)
	}
}
