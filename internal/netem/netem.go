// Package netem is an in-process, deterministic, impaired datagram fabric
// for driving the real UDT stack through adversity. A Net is a virtual
// network of named Endpoints connected by configurable directional paths;
// each path can drop (random or Gilbert–Elliott bursts), delay, jitter,
// reorder, duplicate and corrupt datagrams, cap bandwidth through a bounded
// tail-drop queue, and be partitioned and healed at runtime.
//
// Endpoints satisfy the transport contract of udt.PacketConn (ReadFrom /
// WriteTo / Close / LocalAddr / SetReadDeadline), so the actual
// handshake/sender/receiver code of package udt runs over a netem fabric
// unmodified via udt.DialOn and udt.ListenOn.
//
// Determinism contract: every impairment decision is drawn from a per-path
// PRNG seeded from the Net seed and the path's endpoint names, in packet
// offer order, and all scheduling goes through a Clock. Under a
// VirtualClock with a single-threaded driver (internal/campaign's Run) a
// run is bit-identical across replays: same deliveries, same order, same
// stats. Under a RealClock the draw sequence per path is still fixed by the
// seed, but wall-clock scheduling decides how offers interleave, so only
// statistical behavior is reproducible.
package netem

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"
)

// inboxCap bounds an endpoint's receive queue in datagrams, emulating a
// finite socket buffer; deliveries beyond it are tail-dropped and counted.
const inboxCap = 8192

// maxCorruptBits is the most bits a corrupting path flips in one datagram.
const maxCorruptBits = 3

// Addr is the address of a netem endpoint. Endpoints hand out one *Addr
// for their lifetime, so transports may compare addresses by identity as
// well as by String.
type Addr struct {
	name string
}

// Network returns "netem".
func (a *Addr) Network() string { return "netem" }

// String returns the endpoint name.
func (a *Addr) String() string { return a.name }

// timeoutError is the net.Error returned by an expired read deadline.
type timeoutError struct{}

// Error implements error.
func (timeoutError) Error() string { return "netem: i/o timeout" }

// Timeout reports true: the deadline expired.
func (timeoutError) Timeout() bool { return true }

// Temporary reports true: a later read may succeed.
func (timeoutError) Temporary() bool { return true }

// dgram is one delivered datagram.
type dgram struct {
	from *Addr
	b    []byte
}

// Endpoint is one attachment point of the fabric. It implements the
// transport surface the UDT stack needs (the udt.PacketConn interface):
// blocking deadline-aware reads, connectionless writes by address, Close.
// Reads deliver datagrams in fabric arrival order.
type Endpoint struct {
	net  *Net
	addr *Addr

	inbox  chan dgram
	closed chan struct{}
	once   sync.Once

	mu       sync.Mutex
	deadline time.Time
}

// LocalAddr returns the endpoint's address (stable for its lifetime).
func (e *Endpoint) LocalAddr() net.Addr { return e.addr }

// SetReadDeadline sets the deadline for future ReadFrom calls; a zero time
// disables it. Unlike net.PacketConn it does not interrupt a ReadFrom that
// is already blocked — the UDT read loops set the deadline before reading,
// which is the pattern this supports.
func (e *Endpoint) SetReadDeadline(t time.Time) error {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
	return nil
}

// ReadFrom blocks for the next datagram, honoring the read deadline (a
// net.Error with Timeout() == true is returned on expiry) and Close
// (net.ErrClosed). Datagrams longer than p are truncated, like UDP.
func (e *Endpoint) ReadFrom(p []byte) (int, net.Addr, error) {
	e.mu.Lock()
	dl := e.deadline
	e.mu.Unlock()
	var timeout <-chan time.Time
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			select {
			case dg := <-e.inbox:
				return copy(p, dg.b), dg.from, nil
			default:
				return 0, nil, timeoutError{}
			}
		}
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	// Drain ahead of noticing a close, so bytes already delivered are not
	// lost when the peer shuts down.
	select {
	case dg := <-e.inbox:
		return copy(p, dg.b), dg.from, nil
	default:
	}
	select {
	case dg := <-e.inbox:
		return copy(p, dg.b), dg.from, nil
	case <-timeout:
		return 0, nil, timeoutError{}
	case <-e.closed:
		return 0, nil, net.ErrClosed
	}
}

// TryReadFrom is the non-blocking read used by deterministic single-thread
// drivers: it returns the next queued datagram, or ok=false when none is
// pending.
func (e *Endpoint) TryReadFrom(p []byte) (n int, from net.Addr, ok bool) {
	select {
	case dg := <-e.inbox:
		return copy(p, dg.b), dg.from, true
	default:
		return 0, nil, false
	}
}

// WriteTo offers one datagram to the fabric, addressed to another endpoint
// (any net.Addr whose String matches the endpoint name). Like UDP, a write
// into a partition or onto a lossy path still reports success; only writing
// on a closed endpoint or to an unknown address fails.
func (e *Endpoint) WriteTo(p []byte, addr net.Addr) (int, error) {
	select {
	case <-e.closed:
		return 0, net.ErrClosed
	default:
	}
	return e.net.send(e, addr, p)
}

// Close detaches the endpoint: pending and future reads fail with
// net.ErrClosed and in-flight deliveries to it are discarded.
func (e *Endpoint) Close() error {
	e.once.Do(func() { close(e.closed) })
	return nil
}

// isClosed reports whether Close was called.
func (e *Endpoint) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

// pending is one scheduled delivery.
type pending struct {
	at   int64
	seq  int64
	dst  *Endpoint
	pth  *path
	from *Addr
	b    []byte
}

// Net is a virtual network: a set of named endpoints and the directional
// paths between them. All impairment state is guarded by one mutex, so the
// decision order is the packet offer order. A nil-safe zero Net does not
// exist; use New.
type Net struct {
	clock Clock
	seed  int64

	mu    sync.Mutex
	eps   map[string]*Endpoint
	paths map[pathKey]*path
	heap  []pending
	pseq  int64
}

// New returns an empty fabric whose impairment draws derive from seed and
// whose scheduling runs on clock (nil means a fresh RealClock).
func New(seed int64, clock Clock) *Net {
	if clock == nil {
		clock = NewRealClock()
	}
	return &Net{
		clock: clock,
		seed:  seed,
		eps:   make(map[string]*Endpoint),
		paths: make(map[pathKey]*path),
	}
}

// Clock returns the fabric's clock (for scheduling scenario events).
func (n *Net) Clock() Clock { return n.clock }

// Endpoint creates and attaches a new endpoint with the given name.
func (n *Net) Endpoint(name string) (*Endpoint, error) {
	return n.EndpointBuf(name, inboxCap)
}

// EndpointBuf creates an endpoint with an explicit receive-queue capacity in
// datagrams (≤ 0 selects the default). Router nodes in multi-hop topologies
// use larger inboxes so the forwarding driver, not the socket emulation,
// decides where queueing happens.
func (n *Net) EndpointBuf(name string, pkts int) (*Endpoint, error) {
	if pkts <= 0 {
		pkts = inboxCap
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.eps[name]; dup {
		return nil, fmt.Errorf("netem: endpoint %q already exists", name)
	}
	e := &Endpoint{
		net:    n,
		addr:   &Addr{name: name},
		inbox:  make(chan dgram, pkts),
		closed: make(chan struct{}),
	}
	n.eps[name] = e
	return e, nil
}

// pathLocked returns (creating if needed) the directional path from → to.
// Callers hold mu.
func (n *Net) pathLocked(from, to string) *path {
	k := pathKey{from: from, to: to}
	p, ok := n.paths[k]
	if !ok {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s->%s", n.seed, from, to)
		p = &path{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
		n.paths[k] = p
	}
	return p
}

// SetLink configures both directions between a and b with the same config.
// Existing impairment state (PRNG position, GE state, queue) is preserved;
// only the configuration changes.
func (n *Net) SetLink(a, b string, cfg LinkConfig) {
	n.mu.Lock()
	n.pathLocked(a, b).cfg = cfg
	n.pathLocked(b, a).cfg = cfg
	n.mu.Unlock()
}

// SetPath configures one direction only (asymmetric links).
func (n *Net) SetPath(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	n.pathLocked(from, to).cfg = cfg
	n.mu.Unlock()
}

// UpdatePath mutates one direction's configuration in place under the
// fabric lock — the runtime toggle used by scenario scripts (RTT steps,
// loss bursts).
func (n *Net) UpdatePath(from, to string, f func(*LinkConfig)) {
	n.mu.Lock()
	f(&n.pathLocked(from, to).cfg)
	n.mu.Unlock()
}

// Partition blocks both directions between a and b: every subsequent offer
// is swallowed (counted as DroppedPartition) until Heal. Packets already in
// flight still arrive, as on a real network.
func (n *Net) Partition(a, b string) {
	n.mu.Lock()
	n.pathLocked(a, b).blocked = true
	n.pathLocked(b, a).blocked = true
	n.mu.Unlock()
}

// Heal reopens both directions between a and b.
func (n *Net) Heal(a, b string) {
	n.mu.Lock()
	n.pathLocked(a, b).blocked = false
	n.pathLocked(b, a).blocked = false
	n.mu.Unlock()
}

// SetBlackhole blocks or unblocks one direction only.
func (n *Net) SetBlackhole(from, to string, blocked bool) {
	n.mu.Lock()
	n.pathLocked(from, to).blocked = blocked
	n.mu.Unlock()
}

// PathStats snapshots the counters of one direction.
func (n *Net) PathStats(from, to string) PathStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pathLocked(from, to).stats
}

// QueueLen reports how many datagrams are currently serialized in one
// direction's rate-cap queue (always 0 on uncapped paths). Campaign monitors
// sample it to produce per-link queue-occupancy series.
func (n *Net) QueueLen(from, to string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pathLocked(from, to).queued
}

// send runs the impairment pipeline for one offered datagram and schedules
// the surviving copies for delivery.
func (n *Net) send(src *Endpoint, to net.Addr, b []byte) (int, error) {
	n.mu.Lock()
	dst, ok := n.eps[to.String()]
	if !ok {
		n.mu.Unlock()
		return 0, fmt.Errorf("netem: write to unknown endpoint %q", to.String())
	}
	p := n.pathLocked(src.addr.name, dst.addr.name)
	now := n.clock.Now()
	st := &p.stats
	st.Offered++
	st.BytesOffered += int64(len(b))

	if p.blocked {
		st.DroppedPartition++
		n.mu.Unlock()
		return len(b), nil
	}

	// Loss: Gilbert–Elliott state machine first, then i.i.d. loss.
	lost := false
	if ge := p.cfg.GE; ge != nil {
		if p.geBad {
			if p.rng.Float64() < ge.PBadGood {
				p.geBad = false
			}
		} else if p.rng.Float64() < ge.PGoodBad {
			p.geBad = true
		}
		lp := ge.LossGood
		if p.geBad {
			lp = ge.LossBad
		}
		if lp > 0 && p.rng.Float64() < lp {
			lost = true
			if p.geBad {
				st.LostBurst++
			}
		}
	}
	if !lost && p.cfg.Loss > 0 && p.rng.Float64() < p.cfg.Loss {
		lost = true
	}
	if lost {
		st.Lost++
		n.mu.Unlock()
		return len(b), nil
	}

	// Bandwidth cap: serialize through a bounded FIFO ahead of propagation.
	depart := now
	if p.cfg.RateMbps > 0 {
		qcap := p.cfg.QueuePkts
		if qcap <= 0 {
			qcap = 64
		}
		if p.queued >= qcap {
			st.DroppedQueue++
			n.mu.Unlock()
			return len(b), nil
		}
		tx := int64(float64(len(b)*8) / p.cfg.RateMbps) // bits ÷ Mbit/s = µs
		if tx < 1 {
			tx = 1
		}
		start := p.busyUntil
		if start < now {
			start = now
		}
		p.busyUntil = start + tx
		depart = p.busyUntil
		p.queued++
		n.clock.AfterFunc(depart-now, func() {
			n.mu.Lock()
			p.queued--
			n.mu.Unlock()
		})
	}

	copies := 1
	if p.cfg.Dup > 0 && p.rng.Float64() < p.cfg.Dup {
		copies = 2
		st.Duplicated++
	}
	for i := 0; i < copies; i++ {
		data := append([]byte(nil), b...)
		if p.cfg.Corrupt > 0 && p.rng.Float64() < p.cfg.Corrupt {
			st.Corrupted++
			for k := 1 + p.rng.Intn(maxCorruptBits); k > 0 && len(data) > 0; k-- {
				bit := p.rng.Intn(len(data) * 8)
				data[bit/8] ^= 1 << (bit % 8)
			}
			if !p.cfg.CorruptDeliver {
				// The emulated UDP checksum discards the copy at the
				// receiving edge: the application never sees it.
				continue
			}
		}
		delay := p.cfg.Delay
		if p.cfg.Jitter > 0 {
			delay += p.rng.Int63n(p.cfg.Jitter + 1)
		}
		if p.cfg.Reorder > 0 && p.rng.Float64() < p.cfg.Reorder {
			extra := p.cfg.ReorderExtra
			if extra <= 0 {
				extra = 2*p.cfg.Jitter + 1000
			}
			delay += extra
			st.Reordered++
		}
		at := depart + delay
		n.pushLocked(pending{at: at, seq: n.pseq, dst: dst, pth: p, from: src.addr, b: data})
		n.pseq++
		n.clock.AfterFunc(at-now, n.flush)
	}
	n.mu.Unlock()
	return len(b), nil
}

// flush delivers every scheduled datagram that is due, in (time, offer)
// order. Each pending delivery armed its own timer, so flush fires at least
// once at or after every deadline; early fires simply deliver less.
func (n *Net) flush() {
	n.mu.Lock()
	now := n.clock.Now()
	for len(n.heap) > 0 && n.heap[0].at <= now {
		it := n.popLocked()
		if it.dst.isClosed() {
			continue
		}
		select {
		case it.dst.inbox <- dgram{from: it.from, b: it.b}:
			it.pth.stats.Delivered++
			it.pth.stats.BytesDelivered += int64(len(it.b))
		default:
			it.pth.stats.DroppedInboxFull++
		}
	}
	n.mu.Unlock()
}

// heapLess orders pending deliveries by (arrival time, offer sequence).
// Callers hold mu.
func (n *Net) heapLess(i, j int) bool {
	if n.heap[i].at != n.heap[j].at {
		return n.heap[i].at < n.heap[j].at
	}
	return n.heap[i].seq < n.heap[j].seq
}

// pushLocked inserts a delivery into the schedule. Callers hold mu.
func (n *Net) pushLocked(it pending) {
	n.heap = append(n.heap, it)
	i := len(n.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !n.heapLess(i, parent) {
			break
		}
		n.heap[i], n.heap[parent] = n.heap[parent], n.heap[i]
		i = parent
	}
}

// popLocked removes the earliest delivery. Callers hold mu.
func (n *Net) popLocked() pending {
	it := n.heap[0]
	last := len(n.heap) - 1
	n.heap[0] = n.heap[last]
	n.heap[last] = pending{}
	n.heap = n.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(n.heap) && n.heapLess(l, min) {
			min = l
		}
		if r < len(n.heap) && n.heapLess(r, min) {
			min = r
		}
		if min == i {
			break
		}
		n.heap[i], n.heap[min] = n.heap[min], n.heap[i]
		i = min
	}
	return it
}
