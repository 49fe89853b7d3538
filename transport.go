package udt

import (
	"fmt"
	"net"
	"time"

	"udt/internal/packet"
	"udt/internal/secure"
	"udt/internal/seqno"
)

// PacketConn is the datagram transport a UDT endpoint runs over. It is the
// subset of net.PacketConn the stack needs, so a *net.UDPConn satisfies it
// directly; internal/netem provides an in-process implementation with
// configurable loss, delay, reordering, corruption and partitions for
// deterministic fault-injection testing. Implementations must allow
// concurrent ReadFrom and WriteTo calls.
type PacketConn interface {
	// ReadFrom reads one datagram, reporting its source address.
	ReadFrom(p []byte) (n int, addr net.Addr, err error)
	// WriteTo sends one datagram to addr.
	WriteTo(p []byte, addr net.Addr) (n int, err error)
	// Close tears the transport down, unblocking pending reads.
	Close() error
	// LocalAddr returns the local transport address.
	LocalAddr() net.Addr
	// SetReadDeadline bounds future ReadFrom calls; expiry must surface as
	// a net.Error whose Timeout() is true.
	SetReadDeadline(t time.Time) error
}

// addrEqual reports whether two transport addresses denote the same peer.
// It is symmetric in all cases:
//
//   - interface identity (netem endpoints hand out one *Addr for life);
//   - two *net.UDPAddr compare by port and net.IP.Equal, so an
//     IPv4-in-IPv6 mapped address (::ffff:127.0.0.1) equals its IPv4 form
//     regardless of which side of the comparison it appears on;
//   - otherwise — mixed *net.UDPAddr vs another implementation, or two
//     non-UDP implementations — by Network() and String() form. A non-UDP
//     addr can therefore deliberately impersonate a UDP peer by reporting
//     network "udp" and the same host:port string (proxied transports rely
//     on this), but zone-less string forms of mapped addresses still match
//     because net.IP.String() prints them in dotted-quad form.
func addrEqual(a, b net.Addr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	au, aok := a.(*net.UDPAddr)
	bu, bok := b.(*net.UDPAddr)
	if aok && bok {
		return udpAddrEqual(au, bu)
	}
	return a.Network() == b.Network() && a.String() == b.String()
}

// DialOn performs the UDT client handshake to raddr over the supplied
// transport and returns the established connection. It is Dial for
// arbitrary datagram fabrics: pass a *net.UDPConn for a custom-tuned
// socket, or a netem endpoint for fault-injection tests.
//
// DialOn takes ownership of pc: it is closed when the returned Conn closes,
// and also when the handshake fails. cfg may be nil for defaults.
func DialOn(pc PacketConn, raddr net.Addr, cfg *Config) (*Conn, error) {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := c.Validate(); err != nil {
		pc.Close() //nolint:errcheck
		return nil, err
	}
	c.fill()

	isn := c.randInt31() & seqno.Max
	connID := c.randInt31()
	req := packet.Handshake{
		Version:    packet.Version,
		SockType:   0,
		InitSeq:    isn,
		MSS:        int32(c.MSS),
		FlowWindow: int32(c.MaxFlowWindow),
		ReqType:    packet.HSRequest,
		ConnID:     connID,
	}
	var keys *secure.Keys
	if len(c.PSK) > 0 {
		keys = secure.DeriveKeys(c.PSK)
		req.SecFlags = c.secFlags()
		fillNonce(&req.Nonce, c.randInt31)
	}
	buf := make([]byte, hsBufSize)
	n := 0
	encodeReq := func() error {
		if keys != nil {
			if err := signHandshakeHS(keys, &req, nil); err != nil {
				return err
			}
		}
		var err error
		n, err = packet.EncodeHandshake(buf, &req, 0)
		return err
	}
	if err := encodeReq(); err != nil {
		pc.Close() //nolint:errcheck
		return nil, err
	}

	// Send the request, retrying every 250 ms until the response arrives.
	// On a secure dial a cookie challenge restarts the request with the
	// cookie echoed, and a response failing authentication is ignored.
	deadline := time.Now().Add(c.HandshakeTimeout)
	rbuf := make([]byte, 65536)
	var resp packet.Handshake
	for {
		if time.Now().After(deadline) {
			pc.Close() //nolint:errcheck
			return nil, ErrTimeout
		}
		if _, err := pc.WriteTo(buf[:n], raddr); err != nil {
			pc.Close() //nolint:errcheck
			return nil, fmt.Errorf("udt: handshake: %w", err)
		}
		pc.SetReadDeadline(time.Now().Add(250 * time.Millisecond)) //nolint:errcheck
		rn, from, err := pc.ReadFrom(rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // retry the handshake
			}
			pc.Close() //nolint:errcheck
			return nil, fmt.Errorf("udt: handshake: %w", err)
		}
		if !addrEqual(from, raddr) || !packet.IsControl(rbuf[:rn]) {
			continue
		}
		ctrl, err := packet.DecodeControl(rbuf[:rn])
		if err != nil || ctrl.Type != packet.TypeHandshake {
			continue
		}
		hs, err := packet.DecodeHandshake(ctrl)
		if err != nil || hs.ConnID != connID {
			continue
		}
		if keys != nil && hs.ReqType == packet.HSCookie {
			req.Cookie = hs.Cookie
			if err := encodeReq(); err != nil {
				pc.Close() //nolint:errcheck
				return nil, err
			}
			continue // the loop resends the cookie-bearing request
		}
		if hs.ReqType != packet.HSResponse {
			continue
		}
		if keys != nil {
			if !hs.Sec() {
				if !c.AllowUnauth {
					pc.Close() //nolint:errcheck
					return nil, errAuthRequired
				}
			} else if !verifyHandshakeHS(keys, &hs, req.Nonce[:]) {
				continue // forged or corrupt; keep waiting for the real one
			}
		}
		resp = hs
		break
	}
	pc.SetReadDeadline(time.Time{}) //nolint:errcheck

	// Negotiate downwards.
	if int(resp.MSS) < c.MSS && resp.MSS >= 96 {
		c.MSS = int(resp.MSS)
	}
	if int(resp.FlowWindow) < c.MaxFlowWindow && resp.FlowWindow > 0 {
		c.MaxFlowWindow = int(resp.FlowWindow)
	}

	var sec *secure.Session
	if keys != nil && resp.Sec() {
		sec = secure.NewSession(keys, req.Nonce[:], resp.Nonce[:], true, isn, resp.InitSeq,
			grantAEAD(req.SecFlags, resp.SecFlags))
	}

	// A dedicated socket carries exactly one flow, so it gets a degenerate
	// single-shard scheduler of its own; Conn.Close stops it.
	pool := newConnPool(1, c.Ledger)
	conn := newConn(c, newOwnedSock(pc, !c.DisableOffload), func() { pc.Close() }, pc.LocalAddr(), raddr, isn, resp.InitSeq, pool.shard(), sec)
	conn.ownPool = pool
	go dialedReadLoop(pc, conn)
	return conn, nil
}

// ListenOn starts a UDT listener on the supplied transport. It is Listen
// for arbitrary datagram fabrics; all accepted connections share pc,
// demultiplexed by socket ID (multiplexing clients) or peer address
// (paper-era clients). ListenOn takes ownership of pc — it is closed by
// Listener.Close — and cfg may be nil for defaults.
func ListenOn(pc PacketConn, cfg *Config) (*Listener, error) {
	return listenOn(pc, cfg, 0, 0)
}

// listenOn builds a Mux the listener owns; the socket buffer sizes must
// be known before the read loop starts, since accepted connections copy
// them.
func listenOn(pc PacketConn, cfg *Config, rcvBuf, sndBuf int) (*Listener, error) {
	m, err := newMux(pc, cfg, rcvBuf, sndBuf)
	if err != nil {
		return nil, err
	}
	l, err := m.Listen()
	if err != nil {
		m.Close() //nolint:errcheck
		return nil, err
	}
	l.ownsMux = true
	return l, nil
}

// dialedReadLoop feeds a dialed connection from its private transport
// until the transport closes. Conn.Close closes it, which unblocks the
// pending read (the PacketConn contract); there is no deadline to poll. A
// connection that failed on its own — its peer died — keeps this reader
// parked until the application calls Close.
func dialedReadLoop(pc PacketConn, conn *Conn) {
	buf := make([]byte, 65536)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return // transport closed
		}
		if !addrEqual(from, conn.raddr) {
			continue
		}
		conn.handleDatagram(buf[:n])
	}
}
