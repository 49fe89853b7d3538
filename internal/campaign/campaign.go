package campaign

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sort"

	"udt/internal/mux"
	"udt/internal/netem"
	"udt/internal/netem/chaos"
	"udt/internal/secure"
	"udt/internal/seqno"
	"udt/internal/trace"
)

// routerInboxPkts sizes router endpoints' receive queues: big enough that
// the bounded tail-drop queues of the rate-capped links — not the emulated
// socket buffer — are where congestion shows up.
const routerInboxPkts = 65536

// FlowSpec is one transfer: Src opens a connection to Dst and sends Payload
// bytes, Dst sends Back bytes the other way on the same connection, starting
// at StartAt µs of virtual time.
type FlowSpec struct {
	// Src and Dst are node names in the topology.
	Src, Dst string
	// CC names the congestion controller ("native", "ctcp", "bbrlite", ...)
	// both ends run; empty selects the native law.
	CC string
	// DstCC, when set, overrides CC at Dst: the two ends of one connection
	// then run different laws.
	DstCC string
	// Payload is the transfer size in bytes, Src to Dst.
	Payload int
	// Back is the transfer size in bytes, Dst to Src (often 0).
	Back int
	// StartAt is the flow's arrival time, µs of virtual time.
	StartAt int64
}

// Spec declares one campaign: a topology, the flows crossing it, and the
// engine/measurement parameters. Run(spec) is a pure function of the Spec —
// same seed, same Report bytes.
type Spec struct {
	// Name labels the campaign in reports and metric keys.
	Name string
	// Seed drives every random draw: payload bytes, ISNs, impairments.
	Seed int64
	// Topology is the node graph the flows run over.
	Topology *Topology
	// Flows are the transfers; index is the flow ID in reports.
	Flows []FlowSpec
	// MSS is the UDT packet size (any framing rides outside it). Default
	// 576 — many engines, small buffers.
	MSS int
	// SndBufPkts and RcvBufPkts size each flow's buffers. Default 64.
	SndBufPkts, RcvBufPkts int
	// MinEXP and PeerDeathTime tune failure detection, µs (0 = defaults).
	MinEXP, PeerDeathTime int64
	// MaxVirtualTime aborts the campaign after this much virtual time, µs.
	// Default 120 s.
	MaxVirtualTime int64
	// SampleEveryUs is the link queue-occupancy sampling period. Default
	// 10 000 (one SYN).
	SampleEveryUs int64
	// PerfEverySYN is the engine telemetry cadence in SYN ticks. Default 1
	// (every SYN — short flows still get a few samples).
	PerfEverySYN int
	// Events are scripted mid-campaign faults, fired in At order.
	Events []chaos.Event
	// Secure runs every flow over the sealed AEAD channel: both ends hold
	// seed-derived sessions (key material drawn from the campaign's RNG,
	// exactly as a completed authenticated handshake would leave them), so
	// a duplicating link doubles as a replay attack on the control channel.
	Secure bool
}

func (s *Spec) fill() {
	if s.MSS == 0 {
		s.MSS = 576
	}
	if s.SndBufPkts == 0 {
		s.SndBufPkts = 64
	}
	if s.RcvBufPkts == 0 {
		s.RcvBufPkts = 64
	}
	if s.MaxVirtualTime == 0 {
		s.MaxVirtualTime = 120_000_000
	}
	if s.SampleEveryUs == 0 {
		s.SampleEveryUs = 10_000
	}
	if s.PerfEverySYN == 0 {
		s.PerfEverySYN = 1
	}
}

// FlashCrowd sets every flow's arrival to the same instant.
func FlashCrowd(flows []FlowSpec, at int64) []FlowSpec {
	for i := range flows {
		flows[i].StartAt = at
	}
	return flows
}

// Staggered spaces arrivals evenly: flow i starts at start + i·gap.
func Staggered(flows []FlowSpec, start, gap int64) []FlowSpec {
	for i := range flows {
		flows[i].StartAt = start + int64(i)*gap
	}
	return flows
}

// PoissonArrivals draws exponentially distributed inter-arrival gaps with
// the given mean (µs) from a dedicated seeded source, so arrival patterns
// replay deterministically and independently of the campaign's other draws.
func PoissonArrivals(flows []FlowSpec, seed int64, start, meanGap int64) []FlowSpec {
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // reproducibility, not crypto
	at := start
	for i := range flows {
		flows[i].StartAt = at
		at += int64(rng.ExpFloat64() * float64(meanGap))
	}
	return flows
}

// AssignCC cycles the given law names across the flows: flow i runs
// ccs[i%len(ccs)] — the mixed-law population of a fairness campaign.
func AssignCC(flows []FlowSpec, ccs ...string) []FlowSpec {
	if len(ccs) == 0 {
		return flows
	}
	for i := range flows {
		flows[i].CC = ccs[i%len(ccs)]
	}
	return flows
}

// AssignPayload sets every flow's transfer size.
func AssignPayload(flows []FlowSpec, bytes int) []FlowSpec {
	for i := range flows {
		flows[i].Payload = bytes
	}
	return flows
}

// end is one flow end: a peer hosted at a node. It implements mux.Flow so a
// node hosting several ends can demultiplex to it by socket ID.
type end struct {
	peer *chaos.Peer
	vc   *netem.VirtualClock
}

// HandleDatagram delivers one arriving datagram to the peer at the current
// virtual instant. A broken peer's datagrams are read and discarded.
func (e *end) HandleDatagram(raw []byte) {
	if !e.peer.Broken() {
		e.peer.Deliver(e.vc.Now(), raw)
	}
}

// node is one topology node as the driver schedules it: a router forwards,
// a leaf hosts flow ends.
type node struct {
	name  string
	ep    *netem.Endpoint
	idx   uint16
	ends  []*end
	demux *mux.Core // set when the node hosts more than one flow end
}

// flowState is one running flow: the initiating peer at Src, the responding
// peer at Dst, and the bookkeeping the driver needs.
type flowState struct {
	spec    FlowSpec
	src     *chaos.Peer
	dst     *chaos.Peer
	started bool
	doneAt  int64 // first instant both ends were finished; -1 while running
}

// over reports the flow needs no more driving: both ends finished once, or
// each end is finished or broken.
func (fl *flowState) over() bool {
	return fl.doneAt >= 0 ||
		(fl.src.Broken() || fl.src.Finished()) && (fl.dst.Broken() || fl.dst.Finished())
}

// Run executes one campaign under a virtual clock and returns its Report
// (plus the Monitor holding the full per-flow/per-link series). It is fully
// deterministic: same Spec, byte-identical Report.
//
// Run is the repository's one virtual-time driver. Each round, at virtual
// time now, it fires due events and arrivals, lets every router forward its
// queued datagrams, then visits the leaves: each leaf reads its queued
// datagrams, hands them to its flow ends, and services each end (timers,
// control output, paced data). Routers go in name order, leaves in the
// order the flows first name them, ends in flow order. When a round made
// progress the next one runs at the same instant; otherwise the clock jumps
// to the earliest of the next event, arrival, link sample, fabric delivery
// and every started peer's NextWake — finished flows included, so their
// keep-alives run as they would on a real socket.
//
// The wire framing follows the topology, never an option: a datagram
// carries the destination node's 2-byte index only when the topology has a
// router, and the destination end's 4-byte socket ID (demultiplexed by a
// mux.Core, as the production udt.Mux does) only when the destination node
// hosts more than one flow end. A two-node, one-flow campaign therefore
// sends bare UDT packets.
func Run(spec Spec) (*Report, *Monitor, error) {
	spec.fill()
	topo := spec.Topology
	if topo == nil {
		return nil, nil, fmt.Errorf("campaign: nil topology")
	}
	if err := topo.validate(spec.Flows); err != nil {
		return nil, nil, err
	}
	if len(topo.nodes) > 1<<16 {
		return nil, nil, fmt.Errorf("campaign: %d nodes exceed the %d-node header space", len(topo.nodes), 1<<16)
	}

	vc := netem.NewVirtualClock(0)
	nw := netem.New(spec.Seed, vc)
	rng := rand.New(rand.NewSource(spec.Seed)) //nolint:gosec // reproducibility, not crypto

	// Nodes: leaves (flow endpoints) get the default inbox, routers get deep
	// ones so queueing concentrates in the link queues under test.
	hosted := make(map[string]int, 2*len(spec.Flows))
	var leafOrder []string
	for _, f := range spec.Flows {
		for _, n := range []string{f.Src, f.Dst} {
			if hosted[n] == 0 {
				leafOrder = append(leafOrder, n)
			}
			hosted[n]++
		}
	}
	nodes := make(map[string]*node, len(topo.nodes))
	var routers []*node
	for _, n := range topo.nodes {
		buf := 0 // default
		if hosted[n] == 0 {
			buf = routerInboxPkts
		}
		ep, err := nw.EndpointBuf(n, buf)
		if err != nil {
			return nil, nil, err
		}
		nd := &node{name: n, ep: ep, idx: uint16(topo.index[n])}
		if hosted[n] > 1 {
			// No bare traffic reaches a demultiplexing node: a handshake or
			// an unknown socket ID counts as a drop (Report.Misrouted).
			nd.demux = mux.NewCore(nil)
		}
		if hosted[n] == 0 {
			routers = append(routers, nd)
		}
		nodes[n] = nd
	}
	// Routers forward in sorted-name order each round — deterministic.
	sort.Slice(routers, func(i, j int) bool { return routers[i].name < routers[j].name })
	routed := len(routers) > 0
	order := routers
	for _, n := range leafOrder {
		order = append(order, nodes[n])
	}
	for _, l := range topo.links {
		nw.SetLink(l.a, l.b, l.cfg)
	}
	hops := topo.routes()

	monitor := newMonitor(len(spec.Flows), topo)

	// wire returns the transmit hook of a flow end at node from whose peer
	// end, registered under socket ID peerID, sits at node to.
	wire := func(from, to string, peerID int32) func([]byte) {
		var prefix []byte
		if routed {
			prefix = binary.BigEndian.AppendUint16(prefix, uint16(topo.index[to]))
		}
		if nodes[to].demux != nil {
			prefix = binary.BigEndian.AppendUint32(prefix, uint32(peerID))
		}
		return writer(nodes[from].ep, nodes[hops[from][to]].ep.LocalAddr(), prefix, spec.MSS)
	}

	// Build the flows. All random draws happen here, in flow order — payload,
	// back payload, the two ISNs, then any sealing material — so the draw
	// sequence is a function of the Spec alone.
	flows := make([]*flowState, len(spec.Flows))
	for i, f := range spec.Flows {
		payload := make([]byte, f.Payload)
		rng.Read(payload) //nolint:errcheck // never fails
		back := make([]byte, f.Back)
		rng.Read(back) //nolint:errcheck
		isnS := rng.Int31() & seqno.Max
		isnD := rng.Int31() & seqno.Max
		var secS, secD *secure.Session
		if spec.Secure {
			var psk [32]byte
			var nonceS, nonceD [16]byte
			rng.Read(psk[:])    //nolint:errcheck // never fails
			rng.Read(nonceS[:]) //nolint:errcheck
			rng.Read(nonceD[:]) //nolint:errcheck
			keys := secure.DeriveKeys(psk[:])
			secS = secure.NewSession(keys, nonceS[:], nonceD[:], true, isnS, isnD, true)
			secD = secure.NewSession(keys, nonceS[:], nonceD[:], false, isnD, isnS, true)
		}
		dstCC := f.CC
		if f.DstCC != "" {
			dstCC = f.DstCC
		}
		idS := mux.MakeID(int32(0x1000_0000 + i))
		idD := mux.MakeID(int32(0x2000_0000 + i))
		base := chaos.PeerOptions{
			MSS:           spec.MSS,
			SndBufPkts:    spec.SndBufPkts,
			RcvBufPkts:    spec.RcvBufPkts,
			MinEXP:        spec.MinEXP,
			PeerDeathTime: spec.PeerDeathTime,
		}
		sOpts := base
		sOpts.CC = f.CC
		sOpts.ISN, sOpts.PeerISN = isnS, isnD
		sOpts.Payload, sOpts.Expect = payload, back
		sOpts.Out = wire(f.Src, f.Dst, idD)
		sOpts.Secure = secS
		sOpts.TrackAckLatency = true
		dOpts := base
		dOpts.CC = dstCC
		dOpts.ISN, dOpts.PeerISN = isnD, isnS
		dOpts.Payload, dOpts.Expect = back, payload
		dOpts.Out = wire(f.Dst, f.Src, idS)
		dOpts.Secure = secD
		fl := &flowState{spec: f, src: chaos.NewPeer(sOpts), dst: chaos.NewPeer(dOpts), doneAt: -1}
		fl.src.AttachPerf(monitor, spec.PerfEverySYN, int32(i), f.CC, trace.RoleSender)
		fl.dst.AttachPerf(monitor, spec.PerfEverySYN, int32(i), dstCC, trace.RoleReceiver)
		for _, e := range []struct {
			at   string
			id   int32
			peer *chaos.Peer
		}{{f.Src, idS, fl.src}, {f.Dst, idD, fl.dst}} {
			nd := nodes[e.at]
			ep := &end{peer: e.peer, vc: vc}
			nd.ends = append(nd.ends, ep)
			if nd.demux != nil && !nd.demux.Register(e.id, ep) {
				panic(fmt.Sprintf("campaign: socket ID collision at flow %d", i))
			}
		}
		flows[i] = fl
	}

	events := append([]chaos.Event(nil), spec.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	// Arrival schedule: indices of flows not yet started, in StartAt order.
	arrivals := make([]int, len(flows))
	for i := range arrivals {
		arrivals[i] = i
	}
	sort.SliceStable(arrivals, func(a, b int) bool {
		return flows[arrivals[a]].spec.StartAt < flows[arrivals[b]].spec.StartAt
	})

	rep := &Report{Name: spec.Name, Seed: spec.Seed}
	rbuf := make([]byte, 65536)
	var misrouted, unroutable int64
	nextSample := int64(0)
	for {
		now := vc.Now()
		progress := false
		for len(events) > 0 && events[0].At <= now {
			events[0].Do(nw)
			events = events[1:]
			progress = true
		}
		for len(arrivals) > 0 && flows[arrivals[0]].spec.StartAt <= now {
			fl := flows[arrivals[0]]
			arrivals = arrivals[1:]
			fl.src.Start(now)
			fl.dst.Start(now)
			fl.started = true
			progress = true
		}
		for _, nd := range order {
			for {
				n, from, ok := nd.ep.TryReadFrom(rbuf)
				if !ok {
					break
				}
				progress = true
				if len(nd.ends) == 0 {
					// Router hop: re-offer the datagram onto its next link,
					// so it picks up that link's delay/loss/queue.
					if !forward(nd, rbuf[:n], topo, hops, nodes) {
						unroutable++
					}
					continue
				}
				b := rbuf[:n]
				if routed {
					if n < hdrSize || binary.BigEndian.Uint16(b) != nd.idx {
						misrouted++
						continue
					}
					b = b[hdrSize:]
				}
				if nd.demux != nil {
					nd.demux.Dispatch(b, from)
				} else {
					nd.ends[0].HandleDatagram(b)
				}
			}
			for _, e := range nd.ends {
				if e.peer.Service(now) {
					progress = true
				}
			}
		}
		// Measurement tick.
		for now >= nextSample {
			monitor.sampleLinks(now, nw)
			nextSample += spec.SampleEveryUs
		}
		// Completion check.
		done := len(arrivals) == 0
		for _, fl := range flows {
			if !fl.started {
				continue
			}
			fl.src.NoteBroken(now)
			fl.dst.NoteBroken(now)
			if fl.doneAt < 0 && fl.src.Finished() && fl.dst.Finished() {
				fl.doneAt = now
			}
			if !fl.over() {
				done = false
			}
		}
		if done {
			break
		}
		if now >= spec.MaxVirtualTime {
			rep.TimedOut = true
			break
		}
		if progress {
			continue // re-pump at the same instant before sleeping
		}
		wake := spec.MaxVirtualTime
		if len(events) > 0 && events[0].At < wake {
			wake = events[0].At
		}
		if len(arrivals) > 0 && flows[arrivals[0]].spec.StartAt < wake {
			wake = flows[arrivals[0]].spec.StartAt
		}
		if nextSample < wake {
			wake = nextSample
		}
		for _, fl := range flows {
			if fl.started {
				wake = fl.dst.NextWake(fl.src.NextWake(wake))
			}
		}
		if t, ok := vc.NextEvent(); ok && t < wake {
			wake = t
		}
		if wake <= now {
			wake = now + 1 // guarantee progress even on zero-delay links
		}
		vc.AdvanceTo(wake)
	}

	rep.ElapsedUs = vc.Now()
	for _, nd := range order {
		if nd.demux != nil {
			unknown, short := nd.demux.Counters()
			misrouted += int64(unknown + short)
		}
	}
	rep.Misrouted = misrouted
	rep.Unroutable = unroutable
	buildFlowReports(rep, flows)
	buildLinkReports(rep, monitor, nw)
	summarize(rep)
	rep.OK = !rep.TimedOut && rep.Summary.FlowsOK == len(rep.Flows) && rep.Misrouted == 0 && unroutable == 0
	for _, nd := range order {
		nd.ep.Close() //nolint:errcheck
	}
	return rep, monitor, nil
}

// forward re-offers one datagram a router received toward the next hop of
// the node its header names, reporting false when the header names no
// reachable node.
func forward(rt *node, b []byte, topo *Topology, hops map[string]map[string]string, nodes map[string]*node) bool {
	if len(b) < hdrSize {
		return false
	}
	dst := binary.BigEndian.Uint16(b)
	if int(dst) >= len(topo.nodes) {
		return false
	}
	nh, ok := hops[rt.name][topo.nodes[dst]]
	if !ok {
		return false
	}
	rt.ep.WriteTo(b, nodes[nh].ep.LocalAddr()) //nolint:errcheck // losses are the point
	return true
}

// writer returns a Peer out hook that prepends prefix (the topology's
// framing) to every datagram and offers it to the first hop.
func writer(ep *netem.Endpoint, firstHop net.Addr, prefix []byte, mss int) func([]byte) {
	buf := make([]byte, len(prefix)+mss+secure.CtrlOverhead) // slack for sealed control growth
	copy(buf, prefix)
	return func(b []byte) {
		n := copy(buf[len(prefix):], b)
		ep.WriteTo(buf[:len(prefix)+n], firstHop) //nolint:errcheck // losses are the point
	}
}

// buildFlowReports fills rep.Flows from the final peer states.
func buildFlowReports(rep *Report, flows []*flowState) {
	rep.Flows = make([]FlowReport, len(flows))
	for i, fl := range flows {
		sr := fl.src.Result()
		dr := fl.dst.Result()
		fr := FlowReport{
			ID:            i,
			Src:           fl.spec.Src,
			Dst:           fl.spec.Dst,
			CC:            ccName(fl.spec.CC),
			DstCC:         fl.spec.DstCC,
			StartAtUs:     fl.spec.StartAt,
			DoneAtUs:      fl.doneAt,
			SentBytes:     sr.SentBytes,
			RecvBytes:     dr.RecvBytes,
			BackRecvBytes: sr.RecvBytes,
			RecvOK:        dr.RecvOK && sr.RecvOK,
			Retrans:       sr.Stats.PktsRetrans + dr.Stats.PktsRetrans,
			Timeouts:      sr.Stats.Timeouts + dr.Stats.Timeouts,
			Broken:        sr.Broken || dr.Broken,
			SrcPeer:       sr,
			DstPeer:       dr,
		}
		if fl.doneAt > fl.spec.StartAt && fr.RecvOK {
			fr.GoodputMbps = float64(dr.RecvBytes) * 8 / float64(fl.doneAt-fl.spec.StartAt) // bits/µs ≡ Mb/s
		}
		fr.P99AckUs = p99(fl.src.AckLatencies())
		rep.Flows[i] = fr
	}
}

// ccName maps the empty controller name to its effective law.
func ccName(cc string) string {
	if cc == "" {
		return "native"
	}
	return cc
}

// buildLinkReports fills rep.Links from the fabric counters and the
// monitor's queue series, in the monitor's sorted direction order.
func buildLinkReports(rep *Report, m *Monitor, nw *netem.Net) {
	rep.Links = make([]LinkReport, len(m.links))
	for i := range m.links {
		ls := &m.links[i]
		st := nw.PathStats(ls.from, ls.to)
		rep.Links[i] = LinkReport{
			From:             ls.from,
			To:               ls.to,
			Offered:          st.Offered,
			Delivered:        st.Delivered,
			Lost:             st.Lost,
			DroppedQueue:     st.DroppedQueue,
			DroppedInboxFull: st.DroppedInboxFull,
			MaxQueuePkts:     ls.maxQueue,
			Samples:          len(ls.samples),
		}
	}
}

// p99 returns the 99th-percentile of the latency series, µs (0 if empty).
func p99(lat []int64) int64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(99*(len(s)-1))/100]
}
