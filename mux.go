package udt

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"udt/internal/mux"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
)

// Mux multiplexes many concurrent UDT flows — outbound dials, a listener,
// or both — over one shared datagram transport: one socket, one read
// loop, N endpoints. Flows between two Mux-backed endpoints carry a
// 4-byte destination-socket-ID prefix ahead of each (unchanged) UDT
// packet, negotiated through the extended handshake; a peer speaking the
// paper-era wire format is detected during the handshake and served bare
// datagrams demultiplexed by its address instead (see internal/mux for
// the dispatch rules).
//
// On Linux the read and write paths use recvmmsg/sendmmsg to move batches
// of datagrams per syscall; elsewhere a portable single-datagram path is
// used.
type Mux struct {
	cfg  Config // validated and filled; the defaults every flow inherits
	sock PacketConn
	core *mux.Core
	pool *connPool // shared connection scheduler: cfg.PoolShards workers

	udpRcvBuf, udpSndBuf int // achieved kernel buffer sizes (0 off-UDP)

	reader batchReader  // platform read path
	sender batchWriter  // platform batched write path; nil → WriteTo loop
	ostats offloadStats // GRO state + counters for the shared socket

	// Secure UDT state, nil without a PSK. keys is derived once per Mux;
	// cookies is the rotating stateless source-address cookie generator.
	// hsOut is the reusable encode buffer for pre-authentication replies
	// (cookie challenges) — touched only on the readLoop goroutine, so a
	// spoofed-source handshake flood is answered without allocating.
	keys    *secure.Keys
	cookies *secure.CookieSource
	hsOut   [hsBufSize]byte

	// authRejects counts handshakes and flows refused by authentication;
	// cookieSent counts stateless challenges issued. Surfaced in every
	// flow's Stats like the demultiplexer drop counters.
	authRejects atomic.Uint64
	cookieSent  atomic.Uint64

	// batchAt is the arrival stamp of the datagram currently being
	// demultiplexed: the kernel receive timestamp when available, else
	// one read time shared by the whole batch (readStamp). Both fields
	// are written and read only on the readLoop goroutine (delivery is
	// synchronous); they exist so the engine's arrival-speed and
	// packet-pair estimators see socket arrival times, not per-packet
	// processing time.
	batchAt   time.Time
	readStamp time.Time

	randMu sync.Mutex // serializes cfg.randInt31 (cfg.Rand is not goroutine safe)

	mu       sync.Mutex
	pending  map[int32]*pendingDial       // our socket ID → dial awaiting response
	rdv      map[mux.AddrKey]*pendingDial // peer address → rendezvous dial awaiting crossing
	accepted map[hsKey]*acceptEntry       // answered requests
	conns    map[*Conn]struct{}
	listener *Listener
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// hsRetryUS is the handshake retransmission interval in µs (the paper's
// client keeps requesting until answered or timed out).
const hsRetryUS = 250_000

// pendingDial tracks one in-flight Mux.Dial handshake. It is a poolTask:
// instead of a per-dial runtime timer and ticker, the retransmission
// schedule is an intrusive timer on a scheduler shard's wheel, so a churn
// of thousands of concurrent dials costs zero allocations and zero extra
// goroutines in the timer layer.
type pendingDial struct {
	connID int32
	raddr  net.Addr
	resp   chan hsResp // buffered 1; first response wins

	m        *Mux
	shard    *poolShard
	buf      []byte     // encoded handshake request, resent as-is
	deadline int64      // µs on the shard clock; after this the dial dies
	dead     chan error // buffered 1; delivers ErrTimeout or a send error
	schedSt  schedState

	// Rendezvous state, zero for ordinary dials (see Mux.Rendezvous). While
	// the dial is pending it is registered in m.rdv under rdvKey; a crossing
	// request that loses the tie-break against req is answered by building
	// the connection directly on flow and delivering it through estab.
	rdvKey   mux.AddrKey
	rdvNonce uint64
	isn      int32
	flow     *muxFlow
	req      packet.Handshake
	estab    chan *Conn // buffered 1; a won crossing delivers the conn here
}

func (pd *pendingDial) sched() *schedState { return &pd.schedSt }

// runTask fires on the shard worker at each retransmission deadline:
// resend the request, or declare the dial dead past its deadline. The
// dialing goroutine is parked on pd.resp/pd.dead the whole time.
func (pd *pendingDial) runTask() int64 {
	now := pd.shard.clock.Now()
	if now >= pd.deadline {
		select {
		case pd.dead <- ErrTimeout:
		default:
		}
		return taskNever
	}
	if _, err := pd.m.sock.WriteTo(pd.buf, pd.raddr); err != nil {
		select {
		case pd.dead <- fmt.Errorf("udt: handshake: %w", err):
		default:
		}
		return taskNever
	}
	wake := now + hsRetryUS
	if wake > pd.deadline {
		wake = pd.deadline
	}
	return wake
}

// hsResp is a handshake response routed to a pending dial.
type hsResp struct {
	hs      packet.Handshake
	fromKey mux.AddrKey // response source address
}

// hsKey identifies one connection request: the requester's address, its
// connection ID and its socket ID. Requests are deduplicated by it.
type hsKey struct {
	peer           mux.AddrKey
	connID, sockID int32
}

// acceptEntry pins the exact handshake response for one accepted request,
// so duplicate requests (ours lost on the way back) are re-answered with
// identical parameters instead of ignored.
type acceptEntry struct {
	resp packet.Handshake
	conn *Conn
}

// batchReader is the platform read path: one call reads one or more
// datagrams, invoking deliver for each. Buffers and addresses passed to
// deliver are only valid during that call. at is the datagram's kernel
// receive timestamp when the platform provides one (SO_TIMESTAMPNS), or
// the zero time — the caller then stamps the whole batch with one read
// time, which keeps batched delivery from polluting arrival-interval
// measurements with per-packet processing time.
type batchReader interface {
	readBatch(deliver func(raw []byte, from net.Addr, at time.Time)) error
}

// NewMux wraps pc as a shared multi-flow socket and starts its read loop.
// It takes ownership of pc — the transport is closed by Mux.Close — and
// cfg (nil for defaults) supplies the parameters every flow inherits.
func NewMux(pc PacketConn, cfg *Config) (*Mux, error) {
	rcv, snd := 0, 0
	if u, ok := pc.(*net.UDPConn); ok {
		rcv, snd = tuneUDPBuffers(u)
	}
	return newMux(pc, cfg, rcv, snd)
}

func newMux(pc PacketConn, cfg *Config, rcvBuf, sndBuf int) (*Mux, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := c.Validate(); err != nil {
		pc.Close() //nolint:errcheck
		return nil, err
	}
	c.fill()
	m := &Mux{
		cfg:       c,
		sock:      pc,
		udpRcvBuf: rcvBuf,
		udpSndBuf: sndBuf,
		pending:   make(map[int32]*pendingDial),
		rdv:       make(map[mux.AddrKey]*pendingDial),
		accepted:  make(map[hsKey]*acceptEntry),
		conns:     make(map[*Conn]struct{}),
		done:      make(chan struct{}),
	}
	if len(c.PSK) > 0 {
		m.keys = secure.DeriveKeys(c.PSK)
		// Cookie seeds come from the handshake randomness source so tests
		// with a fixed Config.Rand are reproducible end to end.
		seed := func() uint64 {
			return uint64(uint32(c.randInt31()))<<32 | uint64(uint32(c.randInt31()))
		}
		m.cookies = secure.NewCookieSource(seed(), seed(), secure.DefaultCookieInterval)
	}
	m.core = mux.NewCore(m.handleHandshake)
	m.pool = newConnPool(c.PoolShards, c.Ledger)
	m.reader = newBatchReader(pc, c.BatchSize, !c.DisableOffload, &m.ostats)
	if m.reader == nil {
		m.reader = &singleReader{pc: pc, buf: make([]byte, 65536)}
	}
	m.sender = newBatchSender(pc, !c.DisableOffload)
	m.wg.Add(1)
	go m.readLoop()
	return m, nil
}

// Offload reports the shared socket's segmentation-offload verdicts, as
// probed once at socket setup: gso — the send path can submit
// UDP_SEGMENT trains; gro — the read loop receives kernel-coalesced
// trains. Both are false when offload is disabled, unsupported, or the
// transport is not a UDP socket.
func (m *Mux) Offload() (gso, gro bool) {
	if s, ok := m.sender.(segWriter); ok && s != nil {
		gso = s.offloadActive()
	}
	return gso, m.ostats.groOn.Load()
}

// Addr returns the shared transport's local address.
func (m *Mux) Addr() net.Addr { return m.sock.LocalAddr() }

// Counters reports the demultiplexer's drop totals: datagrams whose
// destination socket ID (or, for bare traffic, source address) was
// unknown, and datagrams too short to classify. The same totals surface
// per-connection as Stats.MuxUnknownDest / Stats.MuxShortDatagram.
func (m *Mux) Counters() (unknownDest, shortDatagram uint64) {
	return m.core.Counters()
}

// Flows returns the number of socket-ID-routed flows currently resident.
func (m *Mux) Flows() int { return m.core.Flows() }

// randInt31 draws handshake randomness under the rand lock: dials run
// concurrently and Config.Rand is a bare *rand.Rand.
func (m *Mux) randInt31() int32 {
	m.randMu.Lock()
	defer m.randMu.Unlock()
	return m.cfg.randInt31()
}

// transientNetErr reports whether a socket error is a transient
// datagram-level condition rather than a dead transport. Linux queues ICMP
// errors (port unreachable from a peer whose process exited, a routing
// blip, an iptables drop) on the socket and reports them as errno on the
// *next* syscall; on a shared socket that error belongs to at most one
// flow, so the socket must keep serving the others. The datagram involved
// is simply lost, which the protocol already repairs.
func transientNetErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENETUNREACH) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EPERM)
}

// readLoop pumps the shared socket into the demultiplexer until the
// transport closes: Mux.Close closes the socket, which unblocks the pending
// read. One flow's dead peer must not take the loop down: queued ICMP
// errors are skipped, not treated as a closed transport.
func (m *Mux) readLoop() {
	defer m.wg.Done()
	deliver := func(raw []byte, from net.Addr, at time.Time) {
		if at.IsZero() {
			// No kernel stamp: one read time for the whole batch.
			if m.readStamp.IsZero() {
				m.readStamp = time.Now()
			}
			at = m.readStamp
		}
		m.batchAt = at
		m.core.Dispatch(raw, from)
	}
	for {
		m.readStamp = time.Time{}
		if err := m.reader.readBatch(deliver); err != nil && !transientNetErr(err) {
			return // transport closed
		}
	}
}

// singleReader is the portable read path: one ReadFrom per call.
type singleReader struct {
	pc  PacketConn
	buf []byte
}

func (r *singleReader) readBatch(deliver func([]byte, net.Addr, time.Time)) error {
	n, from, err := r.pc.ReadFrom(r.buf)
	if err != nil {
		return err
	}
	deliver(r.buf[:n], from, time.Time{})
	return nil
}

// muxFlow is one endpoint's seat on the shared socket: the sockWriter a
// multiplexed Conn sends through, and the mux.Flow its datagrams are
// delivered to. peerID selects the wire format — nonzero stamps the
// peer's socket ID into the headroom of every outgoing datagram; zero
// (an old peer) sends bare packets and receives by address.
type muxFlow struct {
	m         *Mux
	raddr     net.Addr
	id        int32       // our socket ID (0 only for bare accepted flows)
	peerID    int32       // peer's socket ID; 0 = paper-era bare wire format
	addrKey   mux.AddrKey // bare-traffic routing key, when registered
	acceptKey hsKey       // accepted-map key, for teardown
	conn      atomic.Pointer[Conn]
}

// HandleDatagram delivers one demultiplexed datagram to the connection.
// Packets racing ahead of connection setup (the peer answers before our
// Conn is wired) are dropped; the protocol's timers repair the loss.
func (f *muxFlow) HandleDatagram(raw []byte) {
	if c := f.conn.Load(); c != nil {
		if at := f.m.batchAt; !at.IsZero() {
			c.handleDatagramAt(raw, c.clock.At(at))
			return
		}
		c.handleDatagram(raw)
	}
}

func (f *muxFlow) headroom() int {
	if f.peerID != 0 {
		return mux.DestPrefix
	}
	return 0
}

func (f *muxFlow) writeTo(b []byte, addr net.Addr) (int, error) {
	if f.peerID != 0 {
		mux.PutDest(b, f.peerID)
	}
	n, err := f.m.sock.WriteTo(b, addr)
	if err != nil && transientNetErr(err) {
		// A queued ICMP error (possibly another flow's) consumed this
		// send; count the datagram as lost, not the connection as dead.
		return len(b), nil
	}
	return n, err
}

func (f *muxFlow) writeBatch(bufs [][]byte, addr net.Addr) error {
	if f.peerID != 0 {
		for _, b := range bufs {
			mux.PutDest(b, f.peerID)
		}
	}
	if s := f.m.sender; s != nil {
		return s.writeBatch(bufs, addr)
	}
	for _, b := range bufs {
		if _, err := f.m.sock.WriteTo(b, addr); err != nil {
			if transientNetErr(err) {
				continue // this datagram is lost; the socket is fine
			}
			return err
		}
	}
	return nil
}

// writeSegments offers the shared socket's GSO path to the flow's Conn.
// Socket-ID stamping happens before the kernel segments the train, so
// every recovered datagram demultiplexes exactly like a bare send. A
// false return leaves the batch unconsumed; PutDest is idempotent, so
// the sendmmsg fallback re-stamping the same headroom is harmless.
func (f *muxFlow) writeSegments(bufs [][]byte, segSize int, addr net.Addr) (bool, error) {
	s, ok := f.m.sender.(segWriter)
	if !ok || s == nil {
		return false, nil
	}
	if f.peerID != 0 {
		for _, b := range bufs {
			mux.PutDest(b, f.peerID)
		}
	}
	return s.writeSegments(bufs, segSize, addr)
}

func (f *muxFlow) offloadActive() bool {
	if s, ok := f.m.sender.(segWriter); ok && s != nil {
		return s.offloadActive()
	}
	return false
}

func (f *muxFlow) groCounters() (uint64, uint64) {
	return f.m.ostats.groReads.Load(), f.m.ostats.groSegments.Load()
}

func (f *muxFlow) muxCounters() (uint64, uint64) { return f.m.core.Counters() }

func (f *muxFlow) secCounters() (uint64, uint64) {
	return f.m.authRejects.Load(), f.m.cookieSent.Load()
}

// release tears one flow out of every table; it is each Conn's closer.
func (m *Mux) release(f *muxFlow) {
	if f.id != 0 {
		m.core.Unregister(f.id)
	}
	if f.addrKey != (mux.AddrKey{}) {
		m.core.UnregisterAddr(f.addrKey, f)
	}
	m.mu.Lock()
	if c := f.conn.Load(); c != nil {
		delete(m.conns, c)
	}
	if f.acceptKey != (hsKey{}) {
		delete(m.accepted, f.acceptKey)
	}
	delete(m.pending, f.id)
	m.mu.Unlock()
}

// cloneAddr copies an address that may alias reusable reader state (the
// recvmmsg path reuses its address slots across batches). Non-UDP
// transports (netem) hand out one stable *Addr per peer, safe to retain.
func cloneAddr(a net.Addr) net.Addr {
	if u, ok := a.(*net.UDPAddr); ok {
		c := *u
		c.IP = append(net.IP(nil), u.IP...)
		return &c
	}
	return a
}

// Dial opens a UDT connection to raddr over the shared socket. The
// handshake advertises our socket ID; a Mux-backed peer answers with its
// own and both directions switch to socket-ID-prefixed datagrams, so any
// number of flows can share one address pair. An old peer answers with
// the paper-era handshake and the flow falls back to bare datagrams
// routed by the peer's address — at most one such flow per peer address.
func (m *Mux) Dial(raddr net.Addr) (*Conn, error) {
	if raddr == nil {
		return nil, errors.New("udt: mux dial: nil remote address")
	}
	cfg := m.cfg
	// Leave room in each datagram for the destination prefix; the reduced
	// MSS is advertised so the peer's packets also fit under the path MTU.
	cfg.MSS -= mux.DestPrefix
	if cfg.MSS < 96 {
		cfg.MSS = 96
	}

	flow := &muxFlow{m: m, raddr: cloneAddr(raddr)}
	id := m.core.AllocID(m.randInt31, flow)
	flow.id = id
	isn := m.randInt31() & seqno.Max
	connID := m.randInt31()
	shard := m.pool.shard()
	pd := &pendingDial{
		connID: connID, raddr: flow.raddr, resp: make(chan hsResp, 1),
		m: m, shard: shard,
		deadline: shard.clock.Now() + cfg.HandshakeTimeout.Microseconds(),
		dead:     make(chan error, 1),
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.core.Unregister(id)
		return nil, ErrClosed
	}
	m.pending[id] = pd
	m.mu.Unlock()
	fail := func(err error) (*Conn, error) {
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		m.core.Unregister(id)
		return nil, err
	}

	req := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    isn,
		MSS:        int32(cfg.MSS),
		FlowWindow: int32(cfg.MaxFlowWindow),
		ReqType:    packet.HSRequest,
		ConnID:     connID,
		SockID:     id,
	}
	if m.keys != nil {
		req.SecFlags = cfg.secFlags()
		fillNonce(&req.Nonce, m.randInt31)
		if err := signHandshakeHS(m.keys, &req, nil); err != nil {
			return fail(err)
		}
	}
	buf := make([]byte, hsBufSize)
	n, err := packet.EncodeHandshake(buf, &req, 0)
	if err != nil {
		return fail(err)
	}

	// Send the request, then park this goroutine: the scheduler shard's
	// timing wheel owns the 250 ms retransmission cadence and the overall
	// deadline (no per-dial runtime timers). The read loop routes the
	// response back to us (responses arrive bare; internal/mux hands them
	// to handleHandshake, which matches them by our socket ID or, for old
	// peers, by connection ID and address).
	if _, err := m.sock.WriteTo(buf[:n], raddr); err != nil {
		return fail(fmt.Errorf("udt: handshake: %w", err))
	}
	pd.buf = buf[:n]
	shard.attach(pd)
	shard.sleep(pd, shard.clock.Now()+hsRetryUS)
	// Wait for an acceptable response. On a secure dial this is a loop: a
	// cookie challenge restarts the request with the cookie echoed, and a
	// response that fails authentication is ignored — an off-path forgery
	// must not be able to kill the dial — while the wheel keeps
	// retransmitting until the real answer or the deadline.
	var r hsResp
	for {
		select {
		case r = <-pd.resp:
		case err := <-pd.dead:
			shard.detach(pd)
			return fail(err)
		case <-m.done:
			shard.detach(pd)
			return fail(ErrClosed)
		}
		if m.keys == nil {
			break
		}
		hs := r.hs
		if hs.ReqType == packet.HSCookie {
			req.Cookie = hs.Cookie
			if err := signHandshakeHS(m.keys, &req, nil); err != nil {
				shard.detach(pd)
				return fail(err)
			}
			n, err := packet.EncodeHandshake(buf, &req, 0)
			if err != nil {
				shard.detach(pd)
				return fail(err)
			}
			// Swap the retransmission buffer out from under the wheel:
			// detach guarantees no resend is in flight, then re-arm.
			shard.detach(pd)
			pd.buf = buf[:n]
			if _, err := m.sock.WriteTo(pd.buf, raddr); err != nil {
				return fail(fmt.Errorf("udt: handshake: %w", err))
			}
			shard.attach(pd)
			shard.sleep(pd, shard.clock.Now()+hsRetryUS)
			continue
		}
		if !hs.Sec() {
			if m.cfg.AllowUnauth {
				break // peer is paper-era; negotiate down to clear
			}
			shard.detach(pd)
			return fail(errAuthRequired)
		}
		if !verifyHandshakeHS(m.keys, &hs, req.Nonce[:]) {
			m.authRejects.Add(1)
			continue // forged or corrupt; keep waiting for the real one
		}
		break
	}
	shard.detach(pd)
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()

	hs := r.hs
	// Negotiate downwards.
	if int(hs.MSS) < cfg.MSS && hs.MSS >= 96 {
		cfg.MSS = int(hs.MSS)
	}
	if int(hs.FlowWindow) < cfg.MaxFlowWindow && hs.FlowWindow > 0 {
		cfg.MaxFlowWindow = int(hs.FlowWindow)
	}
	flow.peerID = hs.SockID
	if flow.peerID == 0 {
		// Old peer: its datagrams arrive bare; route them by address.
		flow.addrKey = r.fromKey
		m.core.RegisterAddr(flow.addrKey, flow)
	}
	cfg.sockID = id
	var sec *secure.Session
	if m.keys != nil && hs.Sec() {
		sec = secure.NewSession(m.keys, req.Nonce[:], hs.Nonce[:], true, isn, hs.InitSeq,
			grantAEAD(req.SecFlags, hs.SecFlags))
	}
	conn := newConn(cfg, flow, func() { m.release(flow) }, m.sock.LocalAddr(), flow.raddr, isn, hs.InitSeq, m.pool.shard(), sec)
	conn.mu.Lock()
	conn.udpRcvBuf, conn.udpSndBuf = m.udpRcvBuf, m.udpSndBuf
	conn.mu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		conn.Close() //nolint:errcheck
		return nil, ErrClosed
	}
	m.conns[conn] = struct{}{}
	m.mu.Unlock()
	flow.conn.Store(conn)
	return conn, nil
}

// Listen starts accepting incoming connections on the shared socket. A
// Mux carries at most one listener; dialed flows are unaffected by it.
func (m *Mux) Listen() (*Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.listener != nil {
		return nil, errors.New("udt: mux already has a listener")
	}
	l := &Listener{
		m:       m,
		backlog: make(chan *Conn, 256),
		done:    make(chan struct{}),
	}
	m.listener = l
	return l, nil
}

// attachListener points this Mux's accept path at an existing listener:
// handshakes arriving on this socket then feed l's backlog. It is how
// the secondary members of an SO_REUSEPORT group join the one Listener.
func (m *Mux) attachListener(l *Listener) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.listener != nil {
		return errors.New("udt: mux already has a listener")
	}
	m.listener = l
	return nil
}

// Close tears the whole shared socket down: every flow, the listener, and
// the transport.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]*Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	l := m.listener
	m.mu.Unlock()
	close(m.done)
	if l != nil {
		l.closeAccepting()
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	// Every Conn has detached from its shard (Close blocks on that), so the
	// scheduler can stop; dials racing Close detach safely against stopped
	// shards — see poolShard.detach.
	m.pool.close()
	err := m.sock.Close()
	m.wg.Wait()
	return err
}

// handleHandshake receives every bare handshake control packet on the
// shared socket, on the read-loop goroutine.
func (m *Mux) handleHandshake(raw []byte, from net.Addr) {
	ctrl, err := packet.DecodeControl(raw)
	if err != nil {
		return
	}
	hs, err := packet.DecodeHandshake(ctrl)
	if err != nil || hs.Version != packet.Version {
		return
	}
	switch hs.ReqType {
	case packet.HSResponse:
		m.completeDial(hs, from)
	case packet.HSCookie:
		// A listener's stateless challenge to one of our dials; the dialing
		// goroutine echoes the cookie in a fresh request.
		m.completeDial(hs, from)
	case packet.HSRequest:
		if hs.Rdv() {
			m.rendezvousCross(hs, from, raw)
			return
		}
		m.answerRequest(hs, from, raw)
	}
}

// gateRequest runs the pre-connection Secure UDT checks on an incoming
// request, cheapest first, before any state is allocated or even a map key
// formatted: the source-address cookie (one SipHash; missing or stale →
// a stateless challenge), then the handshake authenticator (HMAC verified
// against the raw bytes). It reports whether the request may proceed, and
// whether the sealed data channel was granted. Runs on the readLoop
// goroutine; the reply buffer is reused, so a spoofed-source flood
// allocates nothing here.
func (m *Mux) gateRequest(hs *packet.Handshake, from net.Addr, raw []byte) (ok, aead bool) {
	if m.keys == nil {
		return true, false
	}
	if !hs.Sec() {
		if !m.cfg.AllowUnauth {
			m.authRejects.Add(1)
			return false, false
		}
		return true, false // negotiated down to the clear protocol
	}
	var ab [64]byte
	addr := cookieAddr(ab[:0], from)
	now := time.Now().UnixMicro()
	if !m.cookies.Valid(now, addr, hs.Cookie) {
		m.cookieSent.Add(1)
		ch := packet.Handshake{
			Version:    packet.Version,
			ReqType:    packet.HSCookie,
			ConnID:     hs.ConnID,
			PeerSockID: hs.SockID,
			SecFlags:   secure.FlagAuth,
			Cookie:     m.cookies.Cookie(now, addr),
		}
		if n, err := packet.EncodeHandshake(m.hsOut[:], &ch, 0); err == nil {
			m.sock.WriteTo(m.hsOut[:n], from) //nolint:errcheck // client re-requests on loss
		}
		return false, false
	}
	if !verifyHandshakeRaw(m.keys, raw, nil) {
		m.authRejects.Add(1)
		return false, false
	}
	return true, grantAEAD(m.cfg.secFlags(), hs.SecFlags)
}

// completeDial routes a handshake response to the dial waiting for it. A
// Mux-backed peer echoes our socket ID in PeerSockID — an exact table
// match; an old peer's 28-byte response is matched by connection ID and
// source address.
func (m *Mux) completeDial(hs packet.Handshake, from net.Addr) {
	m.mu.Lock()
	var pd *pendingDial
	if hs.PeerSockID != 0 {
		if p := m.pending[hs.PeerSockID]; p != nil && p.connID == hs.ConnID {
			pd = p
		}
	} else {
		for _, p := range m.pending {
			if p.connID == hs.ConnID && addrEqual(from, p.raddr) {
				pd = p
				break
			}
		}
	}
	m.mu.Unlock()
	if pd == nil {
		return
	}
	select {
	case pd.resp <- hsResp{hs: hs, fromKey: mux.KeyOf(from)}:
	default: // duplicate response; the first one won
	}
}

// answerRequest accepts (or re-answers) a connection request. Requests
// are deduplicated by (address, connection ID, peer socket ID), so one
// client address can carry many multiplexed flows, and a request whose
// response was lost is answered again with identical parameters — the
// retry is indistinguishable from the original on the client side.
func (m *Mux) answerRequest(hs packet.Handshake, from net.Addr, raw []byte) {
	ok, aead := m.gateRequest(&hs, from, raw)
	if !ok {
		return
	}
	secPeer := m.keys != nil && hs.Sec()
	key := hsKey{peer: mux.KeyOf(from), connID: hs.ConnID, sockID: hs.SockID}
	m.mu.Lock()
	if m.closed || m.listener == nil {
		m.mu.Unlock()
		return
	}
	backlog := m.listener.backlog
	var fresh *Conn
	e := m.accepted[key]
	if e == nil && len(backlog) == cap(backlog) {
		// Backlog full: drop the request unanswered, like a full TCP listen
		// queue. Answering first and closing on overflow would tear the
		// flow down microseconds after the client completed its dial — its
		// retry converges, a lost shutdown notice does not.
		m.mu.Unlock()
		return
	}
	if e == nil {
		cfg := m.cfg
		if hs.Ext() {
			// Both sides will prefix; shrink the packet to keep prefix +
			// packet within the same datagram budget.
			cfg.MSS -= mux.DestPrefix
			if cfg.MSS < 96 {
				cfg.MSS = 96
			}
		}
		if int(hs.MSS) < cfg.MSS && hs.MSS >= 96 {
			cfg.MSS = int(hs.MSS)
		}
		if int(hs.FlowWindow) < cfg.MaxFlowWindow && hs.FlowWindow > 0 {
			cfg.MaxFlowWindow = int(hs.FlowWindow)
		}
		isn := m.randInt31() & seqno.Max
		flow := &muxFlow{m: m, raddr: cloneAddr(from), peerID: hs.SockID, acceptKey: key}
		if hs.Ext() {
			flow.id = m.core.AllocID(m.randInt31, flow)
		} else {
			// Old client: everything it sends is bare; route by address.
			flow.addrKey = key.peer
			m.core.RegisterAddr(flow.addrKey, flow)
		}
		cfg.sockID = flow.id
		resp := packet.Handshake{
			Version:    packet.Version,
			InitSeq:    isn,
			MSS:        int32(cfg.MSS),
			FlowWindow: int32(cfg.MaxFlowWindow),
			ReqType:    packet.HSResponse,
			ConnID:     hs.ConnID,
			SockID:     flow.id, // zero for old clients → 28-byte reply
			PeerSockID: hs.SockID,
		}
		var sec *secure.Session
		if secPeer {
			resp.SecFlags = secure.FlagAuth
			if aead {
				resp.SecFlags |= secure.FlagAEAD
			}
			fillNonce(&resp.Nonce, m.randInt31)
			// The response authenticator binds the requester's nonce, so a
			// response captured from another connection fails its check. It
			// is computed once here; re-answers to duplicate requests reuse
			// it, staying bit-identical to the original.
			if err := signHandshakeHS(m.keys, &resp, hs.Nonce[:]); err != nil {
				m.mu.Unlock()
				m.release(flow) // both demux registrations; no conn yet
				return
			}
			sec = secure.NewSession(m.keys, hs.Nonce[:], resp.Nonce[:], false, isn, hs.InitSeq, aead)
		}
		conn := newConn(cfg, flow, func() { m.release(flow) }, m.sock.LocalAddr(), flow.raddr, isn, hs.InitSeq, m.pool.shard(), sec)
		conn.mu.Lock()
		conn.udpRcvBuf, conn.udpSndBuf = m.udpRcvBuf, m.udpSndBuf
		conn.mu.Unlock()
		e = &acceptEntry{resp: resp, conn: conn}
		m.accepted[key] = e
		m.conns[conn] = struct{}{}
		flow.conn.Store(conn)
		fresh = conn
	}
	resp := e.resp
	m.mu.Unlock()

	out := make([]byte, hsBufSize)
	if n, err := packet.EncodeHandshake(out, &resp, 0); err == nil {
		m.sock.WriteTo(out[:n], from) //nolint:errcheck // client retries on loss
	}
	if fresh != nil {
		select {
		case backlog <- fresh:
		default:
			// Backlog overflow: drop the connection; the client's retries
			// will find the slot again after release().
			fresh.Close() //nolint:errcheck
		}
	}
}
