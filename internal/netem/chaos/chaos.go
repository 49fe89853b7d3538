// Package chaos is the fault-injection toolkit: the pieces that drive the
// real UDT protocol engines (internal/core) over a netem fabric and check
// end-to-end properties — data integrity under impairment, eventual
// peer-death detection across partitions, bounded recovery times.
//
// Peer is one single-threaded protocol endpoint, the virtual-clock
// counterpart of udt.Conn's goroutines; Event and the scenario scripts
// (PartitionAt, RTTStep, LossBurst) are scripted faults. The virtual-time
// driver that schedules Peers — two of them, or thousands across a
// multi-node topology — is internal/campaign's Run, which also holds the
// fault matrices. Under it a whole transfer, every packet arrival, timer
// expiry and impairment draw, is a deterministic function of the seed.
//
// RunReal, RunRendezvous and RunFS instead execute the full concurrent udt
// stack (Dial/Listen, goroutines, wall clock) over the same fabric, trading
// replayability for coverage of the production code path.
package chaos

import (
	"udt/internal/core"
	"udt/internal/netem"
)

// Event is a scripted mid-transfer fault: at virtual time At (µs from the
// start of the run), Do is applied to the fabric. Events fire in At order,
// on the driver goroutine, so they are part of the deterministic replay.
type Event struct {
	// At is the virtual time of the fault, µs from the start of the run.
	At int64
	// Do mutates the fabric: partition, heal, change a link's impairments.
	Do func(nw *netem.Net)
}

// PeerResult is one endpoint's outcome.
type PeerResult struct {
	// SentBytes is how much of the peer's payload entered the send buffer.
	SentBytes int
	// RecvBytes is how many stream bytes were read out of the receiver.
	RecvBytes int
	// RecvOK reports the received stream matched the peer's payload
	// byte-for-byte (FNV-64a over length and content).
	RecvOK bool
	// RecvHash is the FNV-64a digest of the received stream.
	RecvHash uint64
	// Broken reports the engine declared the peer dead (EXP expiry).
	Broken bool
	// BrokenAt is the virtual time of death detection, µs (0 if !Broken).
	BrokenAt int64
	// AuthFails and ReplayDrops are the secure session's receive-side
	// rejection counters (zero on cleartext runs).
	AuthFails, ReplayDrops uint64
	// Stats is the engine's final protocol counters.
	Stats core.Stats
}
