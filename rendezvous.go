package udt

import (
	"errors"
	"fmt"
	"net"

	"udt/internal/mux"
	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
)

// Rendezvous connects to a peer that is simultaneously rendezvousing with
// us: both sides call Rendezvous at roughly the same time, each sends the
// other a handshake request, and the crossing itself establishes the
// connection — no listener on either side. This is the UDT rendezvous
// connect mode, the standard way to traverse NATs whose bindings only
// admit traffic to addresses already sent to.
//
// Rendezvous takes ownership of pc — the transport is closed when the
// returned Conn closes, and on failure — and works over any PacketConn
// fabric: a UDP socket punched through a NAT, a fabric.Pipe in tests, a
// fabric.Framed overlay stream. cfg may be nil for defaults; with a PSK
// both requests and the crossing response are authenticated exactly like
// an ordinary secure dial.
func Rendezvous(pc PacketConn, raddr net.Addr, cfg *Config) (*Conn, error) {
	m, err := NewMux(pc, cfg)
	if err != nil {
		return nil, err
	}
	c, err := m.Rendezvous(raddr)
	if err != nil {
		m.Close() //nolint:errcheck
		return nil, err
	}
	c.mu.Lock()
	c.ownMux = m
	c.mu.Unlock()
	return c, nil
}

// RendezvousUDP is Rendezvous over a fresh UDP socket bound to laddr
// ("host:port"; the port both peers exchanged out of band) connecting to
// raddr. cfg may be nil for defaults.
func RendezvousUDP(laddr, raddr string, cfg *Config) (*Conn, error) {
	la, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udt: rendezvous %s: %w", laddr, err)
	}
	ra, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("udt: rendezvous %s: %w", raddr, err)
	}
	sock, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("udt: rendezvous %s: %w", laddr, err)
	}
	return Rendezvous(sock, ra, cfg)
}

// Rendezvous opens a UDT connection to a peer that is concurrently
// rendezvousing with this Mux's address. Both sides send handshake
// requests carrying the rendezvous option; when the requests cross, a
// deterministic tie-break on (cookie, rendezvous nonce, connection ID)
// picks exactly one side to answer, and both sides surface exactly one
// established connection. A rendezvous request reaching a Mux with a
// plain listener (no rendezvous pending for that peer) is served as an
// ordinary accept, so a rendezvous dialer interoperates with listeners.
//
// At most one rendezvous per remote address may be in flight on a Mux;
// ordinary dials and a listener coexist freely alongside it.
func (m *Mux) Rendezvous(raddr net.Addr) (*Conn, error) {
	if raddr == nil {
		return nil, errors.New("udt: rendezvous: nil remote address")
	}
	cfg := m.cfg
	// Both sides speak the extended (socket-ID-prefixed) wire format;
	// leave room for the destination prefix, as in Mux.Dial.
	cfg.MSS -= mux.DestPrefix
	if cfg.MSS < 96 {
		cfg.MSS = 96
	}

	flow := &muxFlow{m: m, raddr: cloneAddr(raddr)}
	id := m.core.AllocID(m.randInt31, flow)
	flow.id = id
	isn := m.randInt31() & seqno.Max
	connID := m.randInt31()
	rdvNonce := uint64(uint32(m.randInt31()))<<32 | uint64(uint32(m.randInt31()))
	shard := m.pool.shard()
	rdvKey := mux.KeyOf(flow.raddr)
	pd := &pendingDial{
		connID: connID, raddr: flow.raddr, resp: make(chan hsResp, 1),
		m: m, shard: shard,
		deadline: shard.clock.Now() + cfg.HandshakeTimeout.Microseconds(),
		dead:     make(chan error, 1),
		rdvKey:   rdvKey, rdvNonce: rdvNonce, isn: isn, flow: flow,
		estab: make(chan *Conn, 1),
	}

	// The read loop's tie-break reads pd.req the moment pd is visible in
	// the rendezvous table (the peer's crossing request can land before we
	// send ours), so the request must be fully built — and signed — before
	// pd is published.
	req := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    isn,
		MSS:        int32(cfg.MSS),
		FlowWindow: int32(cfg.MaxFlowWindow),
		ReqType:    packet.HSRequest,
		ConnID:     connID,
		SockID:     id,
		RdvFlags:   packet.RdvDial,
		RdvNonce:   rdvNonce,
	}
	if m.keys != nil {
		req.SecFlags = cfg.secFlags()
		fillNonce(&req.Nonce, m.randInt31)
		if err := signHandshakeHS(m.keys, &req, nil); err != nil {
			m.core.Unregister(id)
			return nil, err
		}
	}
	pd.req = req
	buf := make([]byte, hsBufSize)
	n, err := packet.EncodeHandshake(buf, &req, 0)
	if err != nil {
		m.core.Unregister(id)
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.core.Unregister(id)
		return nil, ErrClosed
	}
	if m.rdv[rdvKey] != nil {
		m.mu.Unlock()
		m.core.Unregister(id)
		return nil, fmt.Errorf("udt: a rendezvous with %s is already in progress", flow.raddr)
	}
	m.pending[id] = pd
	m.rdv[rdvKey] = pd
	m.mu.Unlock()

	// claim removes the dial from the rendezvous table, deciding who owns
	// its fate: this goroutine, or a crossing the read loop accepted. A
	// false return means the accept won — the established connection is in
	// (or is guaranteed to arrive in) pd.estab.
	claim := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.rdv[rdvKey] == pd {
			delete(m.rdv, rdvKey)
			return true
		}
		return false
	}
	fail := func(err error) (*Conn, error) {
		if !claim() {
			return <-pd.estab, nil
		}
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		m.core.Unregister(id)
		return nil, err
	}

	// Send the request and park on the shard wheel's 250 ms retransmission
	// cadence, exactly like Mux.Dial. Establishment arrives one of two
	// ways: the peer's request crosses ours and loses the tie-break — the
	// read loop answers it and delivers the connection through pd.estab —
	// or the peer (a crossing winner, or a plain listener) answers our
	// request and the response routes through pd.resp.
	if _, err := m.sock.WriteTo(buf[:n], raddr); err != nil {
		return fail(fmt.Errorf("udt: handshake: %w", err))
	}
	pd.buf = buf[:n]
	shard.attach(pd)
	shard.sleep(pd, shard.clock.Now()+hsRetryUS)
	var r hsResp
	var won *Conn
wait:
	for {
		select {
		case won = <-pd.estab:
			break wait
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
			// A plain listener's stateless challenge (rendezvous→listener
			// interop): restart the request with the cookie echoed.
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
				break
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
	if won == nil && !claim() {
		// The read loop accepted a crossing concurrently with this
		// response; the accepted connection is the one both sides already
		// committed to, so the stray response is dropped.
		won = <-pd.estab
	}
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
	if won != nil {
		return won, nil
	}

	hs := r.hs
	// Negotiate downwards, as in Mux.Dial.
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

// rdvWins decides the crossing tie-break: whether our pending request
// beats the peer's. The comparison is on (cookie, rendezvous nonce,
// connection ID) as unsigned tuples — both sides compute it on the same
// two requests and reach opposite conclusions, so exactly one side
// answers. An exact tie (astronomically unlikely with independent
// randomness) leaves both sides quiet until their handshake deadlines.
func rdvWins(ours, theirs *packet.Handshake) bool {
	if ours.Cookie != theirs.Cookie {
		return ours.Cookie > theirs.Cookie
	}
	if ours.RdvNonce != theirs.RdvNonce {
		return ours.RdvNonce > theirs.RdvNonce
	}
	return uint32(ours.ConnID) > uint32(theirs.ConnID)
}

// rendezvousCross handles a handshake request carrying the rendezvous
// option, on the read-loop goroutine. Unlike answerRequest there is no
// stateless-cookie challenge: both sides have already committed local
// state by calling Rendezvous, and the reply targets an address we are
// ourselves actively transmitting to, so there is no amplification to
// prevent — but with a PSK the request authenticator must still verify.
func (m *Mux) rendezvousCross(hs packet.Handshake, from net.Addr, raw []byte) {
	key := hsKey{peer: mux.KeyOf(from), connID: hs.ConnID, sockID: hs.SockID}
	m.mu.Lock()
	closed := m.closed
	e := m.accepted[key]
	pd := m.rdv[key.peer]
	m.mu.Unlock()
	if closed {
		return
	}
	aead := false
	if m.keys != nil {
		if !hs.Sec() {
			if !m.cfg.AllowUnauth {
				m.authRejects.Add(1)
				return
			}
		} else if !verifyHandshakeRaw(m.keys, raw, nil) {
			m.authRejects.Add(1)
			return
		} else {
			aead = grantAEAD(m.cfg.secFlags(), hs.SecFlags)
		}
	}
	if e != nil {
		// Duplicate of a crossing we already answered (our response was
		// lost): re-answer bit-identically, as answerRequest does.
		out := make([]byte, hsBufSize)
		if n, err := packet.EncodeHandshake(out, &e.resp, 0); err == nil {
			m.sock.WriteTo(out[:n], from) //nolint:errcheck
		}
		return
	}
	if pd == nil {
		// No rendezvous pending with this peer: a listener, if any, serves
		// the request like an ordinary dial (answerRequest re-runs the full
		// gate, cookie challenge included).
		m.answerRequest(hs, from, raw)
		return
	}
	if !rdvWins(&pd.req, &hs) {
		// We lost the tie-break: stay quiet and keep retransmitting our own
		// request; the winner answers it.
		return
	}
	m.rdvAccept(pd, hs, from, key, aead)
}

// rdvAccept answers the losing side of a crossing: build the connection
// on the pending dial's already-allocated flow, pin the response for
// duplicate requests, and hand the connection to the goroutine parked in
// Mux.Rendezvous. Runs on the read-loop goroutine.
func (m *Mux) rdvAccept(pd *pendingDial, hs packet.Handshake, from net.Addr, key hsKey, aead bool) {
	m.mu.Lock()
	if m.closed || m.rdv[pd.rdvKey] != pd {
		// The dial resolved (response path, timeout, or teardown) between
		// the crossing lookup and now; retransmits of an accepted crossing
		// are re-answered from the accepted table instead.
		m.mu.Unlock()
		return
	}
	cfg := m.cfg
	cfg.MSS -= mux.DestPrefix
	if cfg.MSS < 96 {
		cfg.MSS = 96
	}
	if int(hs.MSS) < cfg.MSS && hs.MSS >= 96 {
		cfg.MSS = int(hs.MSS)
	}
	if int(hs.FlowWindow) < cfg.MaxFlowWindow && hs.FlowWindow > 0 {
		cfg.MaxFlowWindow = int(hs.FlowWindow)
	}
	flow := pd.flow
	flow.peerID = hs.SockID
	flow.acceptKey = key
	cfg.sockID = flow.id
	// The response reuses the ISN our retransmitting request advertises,
	// so the peer computes the same sequence state from either packet.
	resp := packet.Handshake{
		Version:    packet.Version,
		InitSeq:    pd.isn,
		MSS:        int32(cfg.MSS),
		FlowWindow: int32(cfg.MaxFlowWindow),
		ReqType:    packet.HSResponse,
		ConnID:     hs.ConnID,
		SockID:     flow.id,
		PeerSockID: hs.SockID,
		RdvFlags:   packet.RdvDial,
		RdvNonce:   pd.rdvNonce,
	}
	var sec *secure.Session
	if m.keys != nil && hs.Sec() {
		resp.SecFlags = secure.FlagAuth
		if aead {
			resp.SecFlags |= secure.FlagAEAD
		}
		fillNonce(&resp.Nonce, m.randInt31)
		if err := signHandshakeHS(m.keys, &resp, hs.Nonce[:]); err != nil {
			m.mu.Unlock()
			return
		}
		sec = secure.NewSession(m.keys, hs.Nonce[:], resp.Nonce[:], false, pd.isn, hs.InitSeq, aead)
	}
	conn := newConn(cfg, flow, func() { m.release(flow) }, m.sock.LocalAddr(), flow.raddr, pd.isn, hs.InitSeq, m.pool.shard(), sec)
	conn.mu.Lock()
	conn.udpRcvBuf, conn.udpSndBuf = m.udpRcvBuf, m.udpSndBuf
	conn.mu.Unlock()
	m.accepted[key] = &acceptEntry{resp: resp, conn: conn}
	m.conns[conn] = struct{}{}
	flow.conn.Store(conn)
	delete(m.rdv, pd.rdvKey)   // claim: the crossing resolved this dial
	delete(m.pending, flow.id) // stray responses can no longer race in
	m.mu.Unlock()

	out := make([]byte, hsBufSize)
	if n, err := packet.EncodeHandshake(out, &resp, 0); err == nil {
		m.sock.WriteTo(out[:n], from) //nolint:errcheck // the peer's retries are re-answered above
	}
	pd.estab <- conn // buffered; sent exactly once, guarded by the claim
}
