package campaign

import (
	"udt/internal/netem"
	"udt/internal/netem/chaos"
)

// Case is one cell of a fault matrix: a virtual-clock campaign Spec, or
// one of chaos's real-clock drivers.
type Case struct {
	// Name identifies the cell in reports.
	Name string
	// Spec is the campaign a virtual-clock cell runs; RunMatrix sets its
	// Name and Seed.
	Spec Spec
	// ExpectDeath inverts the success criterion: the cell passes when both
	// ends of every flow detect peer death instead of completing.
	ExpectDeath bool
	// Rendezvous, when set, makes this a real-clock cell: both sides cross
	// simultaneous dials through the impairment, then move the payload
	// (chaos.RunRendezvous). RunMatrix sets its Seed.
	Rendezvous *chaos.RealConfig
	// FS, when set, makes this a real-clock cell: a resumable udtfs fetch
	// whose serving connection is killed part-way (chaos.RunFS). RunMatrix
	// sets its Seed.
	FS *chaos.FSConfig
}

// CaseResult pairs a matrix cell with its outcome.
type CaseResult struct {
	// Case is the cell that ran.
	Case Case
	// Report is a virtual-clock cell's outcome.
	Report *Report
	// Real and FS are the real-clock cells' outcomes.
	Real *chaos.RealResult
	FS   *chaos.FSResult
	// Pass applies the cell's success criterion: a clean report, mutual
	// death detection for ExpectDeath cells, and for FS cells a resume
	// past the scripted kill.
	Pass bool
}

// pair is a two-peer cell: nodes a and b joined by link, one flow a→b
// moving payload bytes each way with 1472-byte packets and 4096-packet
// buffers.
func pair(name string, link netem.LinkConfig, payload int, events ...chaos.Event) Case {
	topo := NewTopology()
	topo.AddLink("a", "b", link)
	return Case{Name: name, Spec: Spec{
		Topology:   topo,
		Flows:      []FlowSpec{{Src: "a", Dst: "b", Payload: payload, Back: payload}},
		MSS:        1472,
		SndBufPkts: 4096,
		RcvBufPkts: 4096,
		Events:     events,
	}}
}

// muxed is an n-pair cell: n flows a→b, each moving payload bytes each way,
// share one link and are demultiplexed by socket ID at both nodes; flow i
// runs ccs[i%len(ccs)] (native when none are given).
func muxed(name string, link netem.LinkConfig, n, payload int, ccs ...string) Case {
	topo := NewTopology()
	topo.AddLink("a", "b", link)
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = FlowSpec{Src: "a", Dst: "b", Payload: payload, Back: payload}
	}
	return Case{Name: name, Spec: Spec{
		Topology:   topo,
		Flows:      AssignCC(flows, ccs...),
		MSS:        576,
		SndBufPkts: 64,
		RcvBufPkts: 64,
	}}
}

// QuickMatrix is the CI impairment matrix: small payloads, every
// impairment class, scripted partitions — a few seconds of wall time under
// the virtual clock.
func QuickMatrix() []Case {
	const quarterMB = 256 << 10
	// The scenario cells cap the link rate so the transfer is still in
	// flight when the scripted fault lands (an uncapped virtual link moves
	// these payloads in tens of virtual milliseconds).
	capped := func(delay int64) netem.LinkConfig {
		return netem.LinkConfig{Delay: delay, RateMbps: 100, QueuePkts: 64}
	}
	heal := capped(2000)
	heal.Loss = 0.005
	perm := pair("partition-permanent", capped(2000), 4<<20, chaos.PartitionAt(30_000, 0)...)
	perm.Spec.MinEXP, perm.Spec.PeerDeathTime, perm.Spec.MaxVirtualTime = 50_000, 2_000_000, 30_000_000
	perm.ExpectDeath = true
	// Authenticated AEAD flows under loss and duplication: every duplicated
	// control packet is a literal replay attack (valid tag, reused sequence
	// number) that the anti-replay window must absorb, while duplicated
	// data packets still reach the engine — its duplicate-triggered re-ACKs
	// are part of the protocol.
	sealed := pair("secure-aead-replay", netem.LinkConfig{Delay: 3000, Jitter: 1000, Loss: 0.005, Dup: 0.01}, quarterMB)
	sealed.Spec.Secure = true
	return []Case{
		pair("clean", netem.LinkConfig{Delay: 2000}, 4*quarterMB),
		pair("loss-1pct", netem.LinkConfig{Delay: 5000, Jitter: 2000, Loss: 0.01}, 2*quarterMB),
		pair("loss-burst-ge", netem.LinkConfig{Delay: 5000, GE: &netem.GEParams{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.7}}, quarterMB),
		pair("dup-corrupt", netem.LinkConfig{Delay: 2000, Dup: 0.01, Corrupt: 0.005}, quarterMB),
		pair("reorder", netem.LinkConfig{Delay: 3000, Jitter: 6000, Reorder: 0.05}, quarterMB),
		pair("rate-capped", netem.LinkConfig{Delay: 2000, RateMbps: 50, QueuePkts: 48}, quarterMB),
		pair("partition-heal", heal, 2*quarterMB, chaos.PartitionAt(20_000, 320_000)...),
		pair("rtt-step", capped(1000), 2*quarterMB, chaos.RTTStep(15_000, 20_000)...),
		pair("loss-episode", capped(2000), 2*quarterMB, chaos.LossBurst(15_000, 150_000, 0.25)...),
		perm,
		// 64 socket-ID-demultiplexed flow pairs interleaved on one lossy
		// path: every packet of every flow must come back out of the shared
		// fabric to the right engine.
		muxed("mux-64flows", netem.LinkConfig{Delay: 3000, Jitter: 1000, Loss: 0.005}, 64, 4096),
		// Rendezvous under loss: two simultaneous dials cross through a
		// lossy path on the full concurrent stack, so a dropped crossing
		// request must be recovered by retransmission before the payload
		// moves — wall-clock timed, digest-pinned on outcome only.
		{Name: "rdv-loss-1pct", Rendezvous: &chaos.RealConfig{
			Payload: quarterMB, Link: netem.LinkConfig{Delay: 2000, Jitter: 1000, Loss: 0.01}}},
		// Killed-and-resumed udtfs fetch: the serving connection dies a
		// quarter of the way in, and the Fetcher must re-dial through the
		// impairment and resume from its verified offset, byte-identical.
		{Name: "fs-kill-resume", FS: &chaos.FSConfig{
			Payload: 4 * quarterMB, Link: netem.LinkConfig{Delay: 2000, Loss: 0.005}, KillAt: quarterMB}},
		sealed,
	}
}

// CCMatrix is the congestion-control matrix: every pluggable law moving
// real transfers over an impaired path, plus fairness cells racing two
// different laws on one rate-capped link — the §5.2 intra/inter-protocol
// scenarios as deterministic replay cells. A fairness cell passes when
// every flow completes; each direction's share of the link is its
// received bytes over the report's elapsed time.
func CCMatrix() []Case {
	const quarterMB = 256 << 10
	impaired := netem.LinkConfig{Delay: 4000, Jitter: 1000, Loss: 0.01}
	shared := netem.LinkConfig{Delay: 5000, RateMbps: 40, QueuePkts: 64}
	law := func(name, src, dst string) Case {
		c := pair(name, impaired, quarterMB)
		c.Spec.Flows[0].CC, c.Spec.Flows[0].DstCC = src, dst
		return c
	}
	race := func(name string, ccs ...string) Case {
		c := muxed(name, shared, 2, 2*quarterMB, ccs...)
		c.Spec.MaxVirtualTime = 300_000_000
		return c
	}
	return []Case{
		// Each non-native law carries a bidirectional transfer through loss.
		law("cc-ctcp", "ctcp", ""),
		law("cc-scalable", "scalable", ""),
		law("cc-hstcp", "hstcp", ""),
		law("cc-bbrlite", "bbrlite", ""),
		// Asymmetric pair: the two ends of one connection run different laws.
		law("cc-native-vs-ctcp", "native", "ctcp"),
		// Fairness: two flow pairs, one per law, multiplexed onto one
		// rate-capped queue; the drop pattern each flow sees depends on the
		// other's sending schedule, so the laws genuinely interact.
		race("cc-fair-native-ctcp", "native", "ctcp"),
		race("cc-fair-ctcp-hstcp", "ctcp", "hstcp"),
		// Rate-based probing vs. loss-based AIMD on one queue: bbrlite must
		// neither starve (its loss reaction keeps it backing off the shared
		// queue) nor be starved by native's bandwidth-indexed increase.
		race("cc-fair-native-bbrlite", "native", "bbrlite"),
	}
}

// RunMatrix executes every cell with the given seed and applies each
// cell's success criterion.
func RunMatrix(seed int64, cases []Case) []CaseResult {
	out := make([]CaseResult, 0, len(cases))
	for _, cs := range cases {
		cr := CaseResult{Case: cs}
		switch {
		case cs.Rendezvous != nil:
			cfg := *cs.Rendezvous
			cfg.Seed = seed
			rr, err := chaos.RunRendezvous(cfg)
			cr.Real, cr.Pass = &rr, err == nil && rr.OK
		case cs.FS != nil:
			cfg := *cs.FS
			cfg.Seed = seed
			fr, err := chaos.RunFS(cfg)
			cr.FS, cr.Pass = &fr, err == nil && fr.OK && fr.Killed && fr.Resumes > 0
		default:
			spec := cs.Spec
			spec.Name, spec.Seed = cs.Name, seed
			rep, _, err := Run(spec)
			if err != nil {
				panic(err) // the matrix tables are well-formed by construction
			}
			cr.Report, cr.Pass = rep, rep.OK
			if cs.ExpectDeath {
				cr.Pass = true
				for _, f := range rep.Flows {
					cr.Pass = cr.Pass && f.SrcPeer.Broken && f.DstPeer.Broken
				}
			}
		}
		out = append(out, cr)
	}
	return out
}
