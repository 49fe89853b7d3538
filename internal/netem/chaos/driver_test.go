package chaos_test

import (
	"reflect"
	"testing"

	"udt/internal/campaign"
	"udt/internal/netem"
	"udt/internal/netem/chaos"
)

// twoNode is a campaign of n flows a→b over one link, each moving fwd bytes
// a→b and back bytes b→a. One flow runs bare on the wire; several are
// demultiplexed by socket ID at both nodes.
func twoNode(seed int64, link netem.LinkConfig, n, fwd, back, mss, bufPkts int, events ...chaos.Event) campaign.Spec {
	topo := campaign.NewTopology()
	topo.AddLink("a", "b", link)
	flows := make([]campaign.FlowSpec, n)
	for i := range flows {
		flows[i] = campaign.FlowSpec{Src: "a", Dst: "b", Payload: fwd, Back: back}
	}
	return campaign.Spec{Name: "two-node", Seed: seed, Topology: topo, Flows: flows,
		MSS: mss, SndBufPkts: bufPkts, RcvBufPkts: bufPkts, Events: events}
}

// pair is one bidirectional flow with 1472-byte packets and 4096-packet
// buffers.
func pair(seed int64, link netem.LinkConfig, fwd, back int, events ...chaos.Event) campaign.Spec {
	return twoNode(seed, link, 1, fwd, back, 1472, 4096, events...)
}

// muxPairs is n socket-ID-demultiplexed flows with 576-byte packets and
// 64-packet buffers.
func muxPairs(seed int64, link netem.LinkConfig, n, payload int, events ...chaos.Event) campaign.Spec {
	return twoNode(seed, link, n, payload, payload, 576, 64, events...)
}

func run(t *testing.T, spec campaign.Spec) *campaign.Report {
	t.Helper()
	rep, _, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDeterministicReplay(t *testing.T) {
	spec := pair(99, netem.LinkConfig{Delay: 3000, Jitter: 2000, Loss: 0.02, Dup: 0.002, Corrupt: 0.001}, 512<<10, 256<<10)
	one, two := run(t, spec), run(t, spec)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", one, two)
	}
	if !one.OK {
		t.Fatalf("transfer failed: %+v", one.Flows)
	}
	if one.Flows[0].SrcPeer.Stats.PktsRetrans == 0 {
		t.Fatal("2% loss produced no retransmissions")
	}
	spec.Seed = 100
	if other := run(t, spec); reflect.DeepEqual(one.Flows, other.Flows) {
		t.Fatal("different seeds produced identical runs (seed unused?)")
	}
}

// TestPartitionPeerDeathBound scripts a permanent mid-transfer partition
// and requires both engines to detect peer death inside the window
// [PeerDeathTime, 2.5·PeerDeathTime] after the cut — the silence
// requirement is a lower bound, and the capped EXP backoff means 16
// expirations land not far above it.
func TestPartitionPeerDeathBound(t *testing.T) {
	const (
		cutAt     = 30_000
		deathTime = 2_000_000
	)
	spec := pair(5, netem.LinkConfig{Delay: 2000, RateMbps: 100, QueuePkts: 64}, 4<<20, 4<<20, chaos.PartitionAt(cutAt, 0)...)
	spec.MinEXP, spec.PeerDeathTime, spec.MaxVirtualTime = 50_000, deathTime, 30_000_000
	r := run(t, spec)
	if r.TimedOut {
		t.Fatalf("run timed out: %+v", r.Flows)
	}
	f := r.Flows[0]
	for name, p := range map[string]chaos.PeerResult{"a": f.SrcPeer, "b": f.DstPeer} {
		if !p.Broken {
			t.Fatalf("peer %s never detected death: %+v", name, p)
		}
		since := p.BrokenAt - cutAt
		if since < deathTime {
			t.Errorf("peer %s died %dµs after the cut, before the %dµs silence bound", name, since, deathTime)
		}
		if since > deathTime*5/2 {
			t.Errorf("peer %s took %dµs to die, beyond 2.5×PeerDeathTime", name, since)
		}
	}
}

// TestScenarioRecovery pins the recovery scripts: a healed partition, a
// transient loss episode and a route change must each end in a complete,
// checksum-clean transfer with no death declared.
func TestScenarioRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []chaos.Event
	}{
		{"partition-heal", chaos.PartitionAt(20_000, 320_000)},
		{"loss-episode", chaos.LossBurst(15_000, 150_000, 0.3)},
		{"rtt-step", chaos.RTTStep(15_000, 25_000)},
	} {
		r := run(t, pair(21, netem.LinkConfig{Delay: 2000, RateMbps: 100, QueuePkts: 64}, 512<<10, 512<<10, tc.events...))
		if f := r.Flows[0]; !r.OK || f.Broken {
			t.Errorf("%s: no recovery: ok=%v timedout=%v a=%+v b=%+v", tc.name, r.OK, r.TimedOut, f.SrcPeer, f.DstPeer)
		}
	}
}

// TestSecureChaosReplayIdentity pins the Secure mode three ways: a sealed
// run is a pure function of the seed (bit-identical replay), it delivers
// the exact stream its cleartext twin delivers (crypto is invisible to the
// application), and under a duplicating link the control-channel replays
// are absorbed by the anti-replay window rather than surfacing as failures.
func TestSecureChaosReplayIdentity(t *testing.T) {
	spec := pair(17, netem.LinkConfig{Delay: 3000, Jitter: 1000, Loss: 0.01, Dup: 0.01}, 512<<10, 256<<10)
	spec.Secure = true
	one, two := run(t, spec), run(t, spec)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("same-seed secure runs diverged:\n%+v\n%+v", one, two)
	}
	if !one.OK {
		t.Fatalf("sealed transfer failed: %+v", one.Flows)
	}
	a, b := one.Flows[0].SrcPeer, one.Flows[0].DstPeer
	if a.AuthFails != 0 || b.AuthFails != 0 {
		t.Fatalf("impairment alone caused auth failures: a=%+v b=%+v", a, b)
	}
	if a.ReplayDrops+b.ReplayDrops == 0 {
		t.Fatal("1% duplication produced no control replays — the window was never exercised")
	}

	spec.Secure = false
	plain := run(t, spec)
	if !plain.OK {
		t.Fatalf("cleartext twin failed: %+v", plain.Flows)
	}
	pa, pb := plain.Flows[0].SrcPeer, plain.Flows[0].DstPeer
	if pa.RecvHash != a.RecvHash || pb.RecvHash != b.RecvHash {
		t.Fatalf("sealed and cleartext runs delivered different streams: %x/%x vs %x/%x",
			a.RecvHash, b.RecvHash, pa.RecvHash, pb.RecvHash)
	}
}

// TestMuxDeterministicReplay runs 64 interleaved flows over an impaired
// path twice with the same seed and requires bit-identical results — the
// demultiplexer, all 128 engines, and every impairment draw replay exactly.
func TestMuxDeterministicReplay(t *testing.T) {
	spec := muxPairs(7, netem.LinkConfig{Delay: 3000, Jitter: 2000, Loss: 0.02, Dup: 0.002, Corrupt: 0.001}, 64, 2048)
	one, two := run(t, spec), run(t, spec)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("same-seed mux runs diverged:\n%+v\n%+v", one, two)
	}
	if !one.OK {
		t.Fatalf("mux transfer failed: %s", one)
	}
	retrans := int64(0)
	for _, f := range one.Flows {
		retrans += f.SrcPeer.Stats.PktsRetrans + f.DstPeer.Stats.PktsRetrans
	}
	if retrans == 0 {
		t.Fatal("2% loss across 64 flows produced no retransmissions")
	}
	spec.Seed = 8
	if other := run(t, spec); reflect.DeepEqual(one.Flows, other.Flows) {
		t.Fatal("different seeds produced identical mux runs (seed unused?)")
	}
}

// TestMuxCleanLinkNoDrops requires a loss-free shared path to deliver
// every flow with zero demultiplexer drops: corruption is the only way a
// datagram can become unroutable, and there is none.
func TestMuxCleanLinkNoDrops(t *testing.T) {
	res := run(t, muxPairs(11, netem.LinkConfig{Delay: 1000}, 64, 2048))
	if !res.OK || res.Summary.FlowsOK != 64 {
		t.Fatalf("clean mux run failed: %s", res)
	}
	if res.Misrouted != 0 {
		t.Fatalf("clean link produced %d demux drops", res.Misrouted)
	}
}

// TestMuxSurvivesPartition scripts a heal-after-cut partition over
// socket-ID-demultiplexed flows: every one of the flows sharing the path
// must recover.
func TestMuxSurvivesPartition(t *testing.T) {
	res := run(t, muxPairs(13, netem.LinkConfig{Delay: 2000, RateMbps: 100, QueuePkts: 64}, 64, 8192,
		chaos.PartitionAt(20_000, 300_000)...))
	if !res.OK {
		t.Fatalf("mux partition run failed: %s", res)
	}
}
