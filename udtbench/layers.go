package main

import (
	"encoding/binary"
	"time"

	"udt"
	"udt/internal/secure"
	"udt/internal/timing"
)

// counters are the per-connection protocol counters the per-layer metrics
// are built from, taken from udt.Conn.Stats and summed over endpoints.
type counters struct {
	pktsSent, pktsRetrans, pktsRecv, pktsDup int64
	acksSent, naksSent, naksRecv             int64
	lossEvents, timeouts, freezes            int64
	windowLimited, pacingDeferred            int64
	sendSyscalls, gsoSends, gsoSegs          int64
	groReads, groSegs, authRejects           int64
	muxUnknown, muxShort                     int64
}

func countersOf(s udt.Stats) counters {
	return counters{
		pktsSent: s.PktsSent, pktsRetrans: s.PktsRetrans, pktsRecv: s.PktsRecv, pktsDup: s.PktsDup,
		acksSent: s.ACKsSent, naksSent: s.NAKsSent, naksRecv: s.NAKsRecv,
		lossEvents: s.LossEvents, timeouts: s.Timeouts, freezes: s.SndFreezes,
		windowLimited: s.WindowLimited, pacingDeferred: s.PacingDeferred,
		sendSyscalls: s.SendSyscalls, gsoSends: s.GSOSends, gsoSegs: s.GSOSegments,
		groReads: int64(s.GROReads), groSegs: int64(s.GROSegments), authRejects: int64(s.AuthRejects),
		muxUnknown: int64(s.MuxUnknownDest), muxShort: int64(s.MuxShortDatagram),
	}
}

// flowOnly keeps the per-connection counters and drops the socket-wide
// ones, which every flow on a Mux reports alike.
func (a counters) flowOnly() counters {
	a.groReads, a.groSegs, a.muxUnknown, a.muxShort = 0, 0, 0, 0
	return a
}

// socketOnly keeps only the socket-wide counters.
func (a counters) socketOnly() counters {
	return counters{groReads: a.groReads, groSegs: a.groSegs, muxUnknown: a.muxUnknown, muxShort: a.muxShort}
}

// add returns a+sign·b field by field.
func (a counters) add(b counters, sign int64) counters {
	return counters{
		a.pktsSent + sign*b.pktsSent, a.pktsRetrans + sign*b.pktsRetrans, a.pktsRecv + sign*b.pktsRecv, a.pktsDup + sign*b.pktsDup,
		a.acksSent + sign*b.acksSent, a.naksSent + sign*b.naksSent, a.naksRecv + sign*b.naksRecv,
		a.lossEvents + sign*b.lossEvents, a.timeouts + sign*b.timeouts, a.freezes + sign*b.freezes,
		a.windowLimited + sign*b.windowLimited, a.pacingDeferred + sign*b.pacingDeferred,
		a.sendSyscalls + sign*b.sendSyscalls, a.gsoSends + sign*b.gsoSends, a.gsoSegs + sign*b.gsoSegs,
		a.groReads + sign*b.groReads, a.groSegs + sign*b.groSegs, a.authRejects + sign*b.authRejects,
		a.muxUnknown + sign*b.muxUnknown, a.muxShort + sign*b.muxShort,
	}
}

// layerInput is everything one traced window measured, from which the
// per-layer metrics are derived.
type layerInput struct {
	c           counters // summed over every endpoint, window deltas
	from, to    rtSample
	ccPeriod    []float64 // sampled congestion period, µs
	ccWindow    []float64 // sampled congestion window, packets
	dialMs      []float64 // Dial call durations
	closeMs     []float64 // Close call durations
	allocsFlow  float64   // heap objects allocated per established flow
	heapKBFlow  float64   // live heap per established flow, KB
	muxFlows    int
	peakGor     int
	lateMs      []float64 // generator lateness samples
	fctMs       []float64 // completion times of the window's flows (bulk: chunks)
	writeShare  float64   // time inside Write / time of the enclosing root spans
	sealNs      float64
	openNs      float64
	sealRejects int64
}

func (in *layerInput) metrics() map[string]metric {
	c := in.c
	led := func(b timing.Bucket) float64 { return float64(in.to.ledger[b] - in.from.ledger[b]) }
	dataOut := float64(c.pktsSent + c.pktsRetrans)
	datagrams := dataOut + float64(c.acksSent+c.naksSent)
	recv := float64(c.pktsRecv)
	attempts := dataOut + float64(c.windowLimited+c.pacingDeferred)
	cpuNs := float64(in.to.cpu - in.from.cpu)
	var charged float64
	for _, b := range timing.Buckets() {
		charged += led(b)
	}
	// Loss processing is timed inside the control-processing span, so the
	// bucket sum counts it twice.
	charged -= led(timing.BucketLossProc)
	m := map[string]metric{
		"socket.syscalls_per_pkt":       {ratio(float64(c.sendSyscalls), datagrams), "ratio"},
		"socket.gso_segs_per_send":      {ratio(float64(c.gsoSegs), float64(c.gsoSends)), "pkts"},
		"socket.gro_segs_per_read":      {ratio(float64(c.groSegs), float64(c.groReads)), "pkts"},
		"socket.udp_write_ns_per_pkt":   {ratio(led(timing.BucketUDPWrite), datagrams), "ns"},
		"packet.pack_ns_per_pkt":        {ratio(led(timing.BucketPack), dataOut), "ns"},
		"packet.unpack_ns_per_pkt":      {ratio(led(timing.BucketUnpack), recv), "ns"},
		"core.measure_ns_per_pkt":       {ratio(led(timing.BucketMeasure), recv), "ns"},
		"core.ctrl_ns_per_pkt":          {ratio(led(timing.BucketProcessCtrl)-led(timing.BucketLossProc), dataOut), "ns"},
		"core.retrans_ratio":            {ratio(float64(c.pktsRetrans), dataOut), "ratio"},
		"core.useful_ratio":             {ratio(recv-float64(c.pktsDup), dataOut), "ratio"},
		"core.acks_per_kpkt":            {ratio(float64(c.acksSent)*1000, recv), "count"},
		"core.naks_per_kpkt":            {ratio(float64(c.naksSent)*1000, recv), "count"},
		"core.timeouts":                 {float64(c.timeouts), "count"},
		"core.window_limited_ratio":     {ratio(float64(c.windowLimited), attempts), "ratio"},
		"core.pacing_deferred_ratio":    {ratio(float64(c.pacingDeferred), attempts), "ratio"},
		"losslist.loss_proc_ns_per_nak": {ratio(led(timing.BucketLossProc), float64(c.naksRecv)), "ns"},
		"losslist.loss_events":          {float64(c.lossEvents), "count"},
		"congestion.period_us":          {median(in.ccPeriod), "us"},
		"congestion.window_pkts":        {median(in.ccWindow), "pkts"},
		"congestion.freezes":            {float64(c.freezes), "count"},
		"secure.seal_ns_per_pkt":        {in.sealNs, "ns"},
		"secure.open_ns_per_pkt":        {in.openNs, "ns"},
		"secure.auth_rejects":           {float64(c.authRejects + in.sealRejects), "count"},
		"conn.write_block_share":        {in.writeShare, "ratio"},
		"conn.allocs_per_pkt":           {ratio(float64(in.to.allocs-in.from.allocs), dataOut+recv), "count"},
		"handshake.dial_p50_ms":         {quantile(in.dialMs, 0.5), "ms"},
		"handshake.dial_p99_ms":         {quantile(in.dialMs, 0.99), "ms"},
		"handshake.close_p50_ms":        {quantile(in.closeMs, 0.5), "ms"},
		"handshake.allocs_per_flow":     {in.allocsFlow, "count"},
		"handshake.heap_kb_per_flow":    {in.heapKBFlow, "KB"},
		"mux.flows":                     {float64(in.muxFlows), "count"},
		"mux.unknown_dest":              {float64(c.muxUnknown), "count"},
		"mux.short_datagram":            {float64(c.muxShort), "count"},
		"pool.pace_wait_ns_per_pkt":     {ratio(led(timing.BucketTiming), dataOut), "ns"},
		"pool.peak_goroutines":          {float64(in.peakGor), "count"},
		"runtime.gc_cpu_share":          {ratio(in.to.gcCPU-in.from.gcCPU, in.to.busyCPU-in.from.busyCPU), "ratio"},
		"gen.fct_p99_ms":                {quantile(in.fctMs, 0.99), "ms"},
		"gen.late_p99_ms":               {quantile(in.lateMs, 0.99), "ms"},
		"gen.late_max_ms":               {quantile(in.lateMs, 1), "ms"},
		"ledger.coverage":               {ratio(charged, cpuNs), "ratio"},
	}
	return m
}

// sealBench times Session.SealData and Session.OpenData on MSS-sized data
// packets between two sessions keyed like a real connection pair, and
// returns the median ns per packet of each over a few rounds plus the
// number of packets that failed to open (which must be zero).
func sealBench(mss int) (sealNs, openNs float64, rejects int64) {
	keys := secure.DeriveKeys([]byte(benchPSK))
	var cn, sn [16]byte
	copy(cn[:], "client nonce 016")
	copy(sn[:], "server nonce 016")
	snd := secure.NewSession(keys, cn[:], sn[:], true, 1000, 2000, true)
	rcv := secure.NewSession(keys, cn[:], sn[:], false, 2000, 1000, true)
	const perRound, rounds = 4096, 5
	pkt := make([]byte, mss)
	var seals, opens []float64
	seq := uint32(1000)
	for r := 0; r < rounds; r++ {
		var sealT, openT time.Duration
		for i := 0; i < perRound; i++ {
			binary.BigEndian.PutUint32(pkt[0:4], seq)
			seq++
			t := time.Now()
			out := snd.SealData(pkt[:mss-secure.Overhead])
			t1 := time.Now()
			_, ok := rcv.OpenData(out)
			sealT += t1.Sub(t)
			openT += time.Since(t1)
			if !ok {
				rejects++
			}
		}
		seals = append(seals, float64(sealT)/perRound)
		opens = append(opens, float64(openT)/perRound)
	}
	return median(seals), median(opens), rejects
}
