// Package udt is a pure-Go implementation of UDT, the UDP-based Data
// Transport protocol of Gu, Hong and Grossman ("Experiences in Design and
// Implementation of a High Performance Transport Protocol", SC '04): a
// reliable, connection-oriented, duplex stream transport built entirely in
// user space on top of UDP, designed for bulk data transfer over networks
// whose bandwidth-delay product defeats TCP.
//
// The API mirrors net's: Listen/Accept on one side, Dial on the other,
// and a Conn with Read/Write/Close plus the paper's file-transfer
// extensions SendFile and RecvFile (§4.7).
//
//	ln, _ := udt.Listen("127.0.0.1:9000", nil)
//	go func() { c, _ := ln.Accept(); io.Copy(io.Discard, c) }()
//	c, _ := udt.Dial("127.0.0.1:9000", nil)
//	c.Write(data)
//
// Protocol mechanics — timer-based selective acknowledgement, explicit
// negative acknowledgement with compressed loss ranges, AIMD rate control
// with receiver-based packet-pair bandwidth estimation, the dynamic flow
// window W = AS·(SYN+RTT), loss-event freezes — live in internal/core and
// are shared verbatim with the repository's network simulator.
package udt

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"time"

	"udt/internal/congestion"
	"udt/internal/core"
	"udt/internal/timing"
	"udt/internal/trace"
)

// Config carries the tunable parameters of a UDT endpoint. The zero value
// gives the paper's defaults.
type Config struct {
	// MSS is the UDT packet size in bytes (header + payload) carried in one
	// UDP datagram. Default 1472 (Ethernet MTU minus IP/UDP headers). §6
	// and Fig. 15: the optimum is the path MTU.
	MSS int
	// SYN is the rate-control and acknowledgement interval. Default 10 ms.
	SYN time.Duration
	// MaxFlowWindow bounds unacknowledged packets. Default 25600.
	MaxFlowWindow int
	// SndBuf and RcvBuf are the buffer sizes in packets. Default 8192 each.
	SndBuf, RcvBuf int
	// HandshakeTimeout bounds connection setup. Default 3 s.
	HandshakeTimeout time.Duration
	// PeerDeathTimeout is how long without any packet from the peer before
	// the connection is declared broken (§3.3's EXP timer; death also
	// requires 16 consecutive EXP expirations). Default 5 s.
	PeerDeathTimeout time.Duration
	// MinEXPInterval floors the EXP timer period. Default 300 ms. Lowering
	// it (with PeerDeathTimeout) makes failure detection proportionally
	// faster — useful in tests and emulated networks.
	MinEXPInterval time.Duration
	// Rand, when non-nil, supplies the handshake randomness (initial
	// sequence numbers and connection IDs), making connection setup
	// reproducible. Nil uses the process-global generator. The source is
	// only read during Dial/Accept, never on the data path.
	Rand *rand.Rand
	// Ledger, when non-nil and enabled, attributes wall time to protocol
	// cost centers (Table 3 / Fig. 14).
	Ledger *timing.Ledger
	// PerfHistory is the capacity in records of the perfmon ring buffer
	// behind Conn.Perf. Default 512 (≈5 s of history at the default SYN and
	// PerfEverySYN); negative disables per-connection telemetry entirely.
	PerfHistory int
	// PerfEverySYN is the telemetry sampling cadence: one PerfRecord every
	// N SYN intervals. Default 1 (a sample every 10 ms at the default SYN).
	PerfEverySYN int
	// Trace, when non-nil, receives every PerfRecord in addition to the
	// Conn.Perf ring — e.g. a trace.CSVSink streaming to a file. Record is
	// called under the connection lock; it must not block or call back into
	// the Conn.
	Trace TraceSink
	// CC selects the congestion controller for connections using this
	// Config: the factory is invoked once per connection. Nil selects the
	// paper's native UDT AIMD (§3.3). Resolve a built-in law by name with
	// CongestionControl ("native", "ctcp", "scalable", "hstcp"). Both ends
	// choose independently — the law is sender-side state, not negotiated.
	CC CongestionFactory
	// BatchSize is how many datagrams one batched syscall moves: the
	// recvmmsg slot count on the read path, the sendmmsg batch on the write
	// path, and the upper bound on the data burst one sender-lock
	// acquisition claims (which is also the segment train one GSO send
	// carries). Default 16; values are clamped to [1, 64], and the data
	// burst is further capped so a full train fits in one 64 KB
	// super-datagram.
	BatchSize int
	// ReusePortShards, when > 1, makes Listen open that many SO_REUSEPORT
	// sockets bound to the same address — each with its own mux shard and
	// read loop — so the kernel fans incoming flows across CPUs instead of
	// serializing them on one socket lock. Linux only; elsewhere (and on
	// transports that are not UDP sockets) it silently degrades to one
	// socket. Default 1; clamped to [1, 64]. Each flow's datagrams hash to
	// one shard by 4-tuple, so per-flow ordering is unaffected.
	ReusePortShards int
	// PoolShards is how many connection-scheduler shards a Mux runs: worker
	// goroutines, each owning a hierarchical timing wheel and a run queue,
	// that service every flow on the shared socket (see internal/timerwheel
	// and DESIGN.md §"Scaling to 100k flows"). Flows are passive state
	// machines; goroutine count is O(PoolShards), not O(flows). Default
	// GOMAXPROCS; clamped to [1, 64]. Dedicated-socket connections (Dial /
	// DialOn) always use one private shard regardless of this setting.
	PoolShards int
	// DisableOffload turns off UDP segmentation offload for endpoints using
	// this Config: no UDP_SEGMENT sends, no UDP_GRO receives. The stack
	// then uses the plain sendmmsg/recvmmsg batching. Offload is also
	// disabled automatically when the kernel or socket does not support it
	// (the capability is probed once per socket).
	DisableOffload bool
	// PSK, when non-empty, turns on Secure UDT: every handshake this
	// endpoint sends carries an HMAC-SHA256 authenticator keyed from the
	// pre-shared key, listeners challenge unknown sources with a stateless
	// cookie before allocating any connection state, and authenticated
	// peers get a sealed control channel (sequenced and replay-protected —
	// a spoofed shutdown or injected ACK is dropped, not obeyed). Both
	// ends must configure the same key, at least 16 bytes of it. See
	// DESIGN.md §"Secure UDT" for the key schedule and threat model.
	PSK []byte
	// AllowUnauth lets a PSK-configured endpoint negotiate down to the
	// clear protocol when the peer does not authenticate: a listener
	// accepts paper-era requests, a dialer accepts paper-era responses.
	// Off (the default, with PSK set), unauthenticated peers are refused:
	// listeners drop their requests silently and dials fail.
	AllowUnauth bool
	// AEAD additionally seals the data channel (ChaCha20-Poly1305, keys
	// derived per connection and direction from PSK plus the handshake
	// nonces): payloads are encrypted in place on the send path's burst
	// arena and authenticated by a 16-byte tag carved out of each
	// packet's payload budget, so wire datagrams stay exactly MSS and the
	// 0 allocs/packet invariant holds with crypto on. Effective only with
	// PSK set; the channel is sealed when both ends request it.
	AEAD bool

	// sockID is this endpoint's socket ID on a shared (multiplexed)
	// socket, filled in by Mux before the connection is wired; zero for a
	// private socket. It flows into the engine (and perf records) via
	// coreConfig.
	sockID int32
}

// Validate rejects configurations that would misbehave silently: negative
// or nonsensical sizes, intervals and timeouts. It checks the fields as
// given — zero always means "use the default" and passes. Dial/Listen (and
// their *On variants) call it before touching the network, so a bad Config
// fails fast with a descriptive error instead of a stalled transfer.
func (c *Config) Validate() error {
	if c.MSS < 0 {
		return fmt.Errorf("udt: config: MSS %d is negative", c.MSS)
	}
	if c.MSS > 0 && c.MSS < 96 {
		return fmt.Errorf("udt: config: MSS %d below the 96-byte minimum", c.MSS)
	}
	if c.MSS > 65507 {
		return fmt.Errorf("udt: config: MSS %d exceeds the 65507-byte UDP payload limit", c.MSS)
	}
	if c.SYN < 0 {
		return fmt.Errorf("udt: config: SYN interval %v is negative", c.SYN)
	}
	if c.SYN > 0 && c.SYN < 100*time.Microsecond {
		return fmt.Errorf("udt: config: SYN interval %v below 100µs", c.SYN)
	}
	if c.MaxFlowWindow < 0 {
		return fmt.Errorf("udt: config: MaxFlowWindow %d is negative", c.MaxFlowWindow)
	}
	if c.SndBuf < 0 || c.RcvBuf < 0 {
		return fmt.Errorf("udt: config: buffer sizes must be non-negative (SndBuf %d, RcvBuf %d)", c.SndBuf, c.RcvBuf)
	}
	if c.HandshakeTimeout < 0 {
		return fmt.Errorf("udt: config: HandshakeTimeout %v is negative", c.HandshakeTimeout)
	}
	if c.PeerDeathTimeout < 0 {
		return fmt.Errorf("udt: config: PeerDeathTimeout %v is negative", c.PeerDeathTimeout)
	}
	if c.MinEXPInterval < 0 {
		return fmt.Errorf("udt: config: MinEXPInterval %v is negative", c.MinEXPInterval)
	}
	if c.PerfEverySYN < 0 {
		return fmt.Errorf("udt: config: PerfEverySYN %d is negative", c.PerfEverySYN)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("udt: config: BatchSize %d is negative", c.BatchSize)
	}
	if c.ReusePortShards < 0 {
		return fmt.Errorf("udt: config: ReusePortShards %d is negative", c.ReusePortShards)
	}
	if c.PoolShards < 0 {
		return fmt.Errorf("udt: config: PoolShards %d is negative", c.PoolShards)
	}
	if len(c.PSK) > 0 && len(c.PSK) < 16 {
		return fmt.Errorf("udt: config: PSK is %d bytes, below the 16-byte minimum", len(c.PSK))
	}
	if c.AEAD && len(c.PSK) == 0 {
		return fmt.Errorf("udt: config: AEAD requires a PSK")
	}
	if c.AllowUnauth && len(c.PSK) == 0 {
		return fmt.Errorf("udt: config: AllowUnauth is meaningless without a PSK")
	}
	return nil
}

// randInt31 draws handshake randomness from Config.Rand, falling back to
// the process-global generator.
func (c *Config) randInt31() int32 {
	if c.Rand != nil {
		return c.Rand.Int31()
	}
	return randv2.Int32()
}

func (c *Config) fill() {
	if c.MSS == 0 {
		c.MSS = 1472
	}
	if c.MSS < 96 {
		c.MSS = 96
	}
	if c.SYN == 0 {
		c.SYN = 10 * time.Millisecond
	}
	if c.MaxFlowWindow == 0 {
		c.MaxFlowWindow = 25600
	}
	if c.SndBuf == 0 {
		c.SndBuf = 8192
	}
	if c.RcvBuf == 0 {
		c.RcvBuf = 8192
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 3 * time.Second
	}
	if c.PerfHistory == 0 {
		c.PerfHistory = 512
	}
	if c.PerfEverySYN == 0 {
		c.PerfEverySYN = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.BatchSize > 64 {
		c.BatchSize = 64
	}
	if c.ReusePortShards == 0 {
		c.ReusePortShards = 1
	}
	if c.ReusePortShards > 64 {
		c.ReusePortShards = 64
	}
	if c.PoolShards == 0 {
		c.PoolShards = runtime.GOMAXPROCS(0)
	}
	if c.PoolShards > 64 {
		c.PoolShards = 64
	}
}

func (c *Config) coreConfig(isn int32) core.Config {
	return core.Config{
		MSS:           c.MSS,
		SYN:           c.SYN.Microseconds(),
		ISN:           isn,
		MaxFlowWindow: int32(c.MaxFlowWindow),
		RecvBufPkts:   int32(c.RcvBuf),
		MinEXP:        c.MinEXPInterval.Microseconds(),
		PeerDeathTime: c.PeerDeathTimeout.Microseconds(),
		SockID:        c.sockID,
		CC:            c.CC,
	}
}

// Stats is a snapshot of a connection's protocol counters.
type Stats struct {
	core.Stats
	RTT          time.Duration
	SendRateMbps float64 // current paced sending rate
	BytesSent    int64
	BytesRecv    int64
	// UDPRcvBufBytes and UDPSndBufBytes are the kernel socket buffer sizes
	// the OS actually granted (which may be below what was requested — see
	// tuneUDPBuffers). Zero when the connection runs over a non-UDP
	// transport such as netem.
	UDPRcvBufBytes int
	UDPSndBufBytes int
	// MuxUnknownDest and MuxShortDatagram count datagrams the shared
	// socket's demultiplexer dropped — destination socket ID (or peer
	// address) not in its tables, and datagrams too short to classify.
	// They are socket-wide totals (every flow on the same Mux reports the
	// same values); zero when the connection has a private socket.
	MuxUnknownDest   uint64
	MuxShortDatagram uint64
	// GSOEnabled reports whether the send path can hand the kernel
	// segmentation-offload trains (UDP_SEGMENT) on this connection's
	// socket: the capability was probed successfully and offload was not
	// disabled. When false every datagram costs its own sendmmsg slot.
	GSOEnabled bool
	// GSOSends counts segmentation-offload sends — each one syscall
	// carrying a train of MSS-sized data packets — and GSOSegments the
	// packets those trains carried. Their ratio is the send-side
	// amortization factor.
	GSOSends    int64
	GSOSegments int64
	// SendSyscalls counts every send syscall the connection issued (plain
	// writes, sendmmsg batches, and GSO trains each count one).
	// SendSyscalls / (PktsSent + retransmissions + control traffic) is the
	// syscalls-per-packet figure the wire-rate datapath drives toward zero.
	SendSyscalls int64
	// GROReads counts receive syscall deliveries on the shared socket that
	// arrived as kernel-coalesced trains (UDP_GRO), and GROSegments the
	// packets recovered from them. Like the mux drop counters they are
	// socket-wide totals; zero on a private or non-UDP transport.
	GROReads    uint64
	GROSegments uint64
	// Goroutines is the process goroutine count sampled when this snapshot
	// was taken, and PeakGoroutines the high-water mark observed at
	// scheduler park points and connection setup since process start. With
	// the shared connection scheduler the peak stays O(PoolShards +
	// sockets) no matter how many flows are resident — the 100k-flow
	// regime's key invariant (see DESIGN.md §"Scaling to 100k flows").
	Goroutines     int
	PeakGoroutines int
	// AuthRejects counts traffic refused by Secure UDT authentication:
	// handshakes the shared socket dropped pre-connection (missing or bad
	// authenticator, with AllowUnauth off) plus this connection's sealed
	// packets that failed to open. The socket-wide part is shared by every
	// flow on the same Mux, like MuxUnknownDest.
	AuthRejects uint64
	// CookieSent counts stateless cookie challenges the shared socket
	// issued to handshake requests that had not yet proven their source
	// address — under a spoofed-source flood this grows while no
	// connection state is allocated. Socket-wide; zero on a private
	// socket (dialed connections never answer requests).
	CookieSent uint64
	// ReplayDrops counts authenticated control packets this connection
	// dropped because their sequence number was already accepted — e.g.
	// an off-path attacker re-injecting a captured shutdown.
	ReplayDrops uint64
	// CCName names the congestion-control law driving the sender: one of
	// the names CongestionControls returns.
	CCName string
	// CCPeriodUs is the controller's live packet sending period in µs;
	// 0 means unpaced (slow start).
	CCPeriodUs float64
	// CCWindowPkts is the controller's live congestion window in packets.
	CCWindowPkts float64
}

// PerfRecord is one perfmon telemetry sample; see internal/trace for the
// field-by-field documentation. Conn.Perf returns the recent history and
// Config.Trace streams records as they are produced.
type PerfRecord = trace.PerfRecord

// TraceSink consumes PerfRecords; see internal/trace.Sink.
type TraceSink = trace.Sink

// CongestionFactory constructs one fresh congestion controller per
// connection; see internal/congestion for the Controller contract.
type CongestionFactory = congestion.Factory

// CongestionControl resolves a built-in congestion-control law by name for
// Config.CC: "native" (the paper's UDT AIMD, also the default for the
// empty string), "ctcp" (TCP-Reno-style AIMD), "scalable" (Scalable TCP
// MIMD) or "hstcp" (RFC 3649 HighSpeed TCP). Unknown names error.
func CongestionControl(name string) (CongestionFactory, error) {
	return congestion.New(name)
}

// CongestionControls lists the built-in congestion controller names.
func CongestionControls() []string { return congestion.Names() }
