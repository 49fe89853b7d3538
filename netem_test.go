package udt

import (
	"bytes"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"udt/internal/netem"
)

// netemPair dials a UDT connection through a netem fabric with the given
// per-direction impairments, returning the fabric, the client conn and the
// accepted server conn.
func netemPair(t *testing.T, seed int64, link netem.LinkConfig, cfg *Config) (*netem.Net, *Conn, *Conn) {
	t.Helper()
	nw := netem.New(seed, nil)
	epC, err := nw.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	epS, err := nw.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLink("c", "s", link)

	ln, err := ListenOn(epS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := DialOn(epC, epS.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	select {
	case server := <-accepted:
		return nw, client, server
	case <-time.After(10 * time.Second):
		t.Fatal("accept timed out")
		return nil, nil, nil
	}
}

func TestDialListenOnNetem(t *testing.T) {
	_, client, server := netemPair(t, 1, netem.LinkConfig{Delay: 1000}, nil)
	msg := []byte("through the emulated fabric")
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if server.RemoteAddr().String() != "c" || client.RemoteAddr().String() != "s" {
		t.Fatalf("addrs: server sees %v, client sees %v", server.RemoteAddr(), client.RemoteAddr())
	}
}

// TestNetemLossyTransferBitExact pushes 4 MB through 1% loss + 0.1%
// duplication + 2 ms jitter and requires the stream to arrive bit-exactly,
// with the loss actually exercised (retransmissions observed).
func TestNetemLossyTransferBitExact(t *testing.T) {
	link := netem.LinkConfig{Delay: 2000, Jitter: 2000, Loss: 0.01, Dup: 0.001}
	nw, client, server := netemPair(t, 7, link, nil)

	payload := make([]byte, 4<<20)
	rand.New(rand.NewSource(7)).Read(payload) //nolint:gosec // test data

	var wg sync.WaitGroup
	wg.Add(1)
	var got []byte
	var rerr error
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for len(got) < len(payload) {
			n, err := server.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				rerr = err
				return
			}
		}
	}()
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatalf("server read: %v", rerr)
	}
	if !bytes.Equal(got, payload) {
		want, have := fnv.New64a(), fnv.New64a()
		want.Write(payload) //nolint:errcheck
		have.Write(got)     //nolint:errcheck
		t.Fatalf("stream corrupted: %d bytes, hash %x != %x", len(got), have.Sum64(), want.Sum64())
	}
	if st := client.Stats(); st.PktsRetrans == 0 {
		t.Fatal("1%% loss produced no retransmissions — impairment not exercised")
	}
	cs := nw.PathStats("c", "s")
	if cs.Lost == 0 || cs.Duplicated == 0 {
		t.Fatalf("fabric stats show no impairment: %+v", cs)
	}
}

// TestNetemCorruptionRejected runs a transfer over a corrupting path and
// requires (a) the emulated UDP checksum counted and discarded mangled
// datagrams, and (b) none of them reached the stream.
func TestNetemCorruptionRejected(t *testing.T) {
	link := netem.LinkConfig{Delay: 1000, Corrupt: 0.01}
	nw, client, server := netemPair(t, 11, link, nil)

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(11)).Read(payload) //nolint:gosec

	done := make(chan []byte, 1)
	go func() {
		got := make([]byte, 0, len(payload))
		buf := make([]byte, 64<<10)
		for len(got) < len(payload) {
			n, err := server.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		done <- got
	}()
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if !bytes.Equal(got, payload) {
		t.Fatalf("corrupted bytes leaked into the stream (%d bytes received)", len(got))
	}
	if st := nw.PathStats("c", "s"); st.Corrupted == 0 {
		t.Fatalf("no corruption recorded at 1%%: %+v", st)
	}
}

// TestNetemPartitionPeerDeath partitions the fabric mid-transfer and
// requires both real endpoints to report ErrPeerDead within a small
// multiple of the configured PeerDeathTimeout.
func TestNetemPartitionPeerDeath(t *testing.T) {
	cfg := &Config{PeerDeathTimeout: 1 * time.Second, MinEXPInterval: 30 * time.Millisecond}
	nw, client, server := netemPair(t, 3, netem.LinkConfig{Delay: 1000}, cfg)

	// Keep both directions busy so death comes from the EXP path, not EOF.
	payload := make([]byte, 32<<20)
	errs := make(chan error, 2)
	watch := func(c *Conn) {
		go c.Write(payload) //nolint:errcheck // blocks until the partition kills it
		go func() {
			_, err := io.Copy(io.Discard, c)
			errs <- err
		}()
	}
	watch(client)
	watch(server)

	// Cut only once both ends are hearing each other: the engine measures
	// silence from the last packet it heard, so a cut taken while an end
	// has heard nothing since the handshake (a slow start under the race
	// detector) would measure the bound from the wrong origin.
	warmup := time.After(10 * time.Second)
	for hearing := false; !hearing; {
		cs, ss := client.Stats(), server.Stats()
		hearing = cs.PktsRecv > 0 && cs.ACKsRecv > 0 && ss.PktsRecv > 0 && ss.ACKsRecv > 0
		if !hearing {
			select {
			case err := <-errs:
				t.Fatalf("endpoint failed before the partition: %v", err)
			case <-warmup:
				t.Fatalf("no two-way traffic 10 s after dialing: client %+v server %+v", cs, ss)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	start := time.Now()
	nw.Partition("c", "s")

	deadline := time.After(5 * cfg.PeerDeathTimeout)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != ErrPeerDead {
				t.Fatalf("endpoint died with %v, want ErrPeerDead", err)
			}
		case <-deadline:
			t.Fatalf("peer death not detected within %v (configured %v)",
				time.Since(start), cfg.PeerDeathTimeout)
		}
	}
	if elapsed := time.Since(start); elapsed < cfg.PeerDeathTimeout {
		t.Fatalf("death after %v, before the configured %v silence bound", elapsed, cfg.PeerDeathTimeout)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MSS: -1},
		{MSS: 50},
		{MSS: 70000},
		{SYN: -time.Second},
		{SYN: time.Microsecond},
		{MaxFlowWindow: -5},
		{SndBuf: -1},
		{RcvBuf: -2},
		{HandshakeTimeout: -time.Second},
		{PeerDeathTimeout: -time.Second},
		{MinEXPInterval: -time.Millisecond},
		{PerfEverySYN: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a nonsense config", i, cfg)
		}
	}
	good := []Config{
		{},
		{MSS: 96},
		{MSS: 9000, SYN: 10 * time.Millisecond, MaxFlowWindow: 1000},
		{PeerDeathTimeout: 2 * time.Second, MinEXPInterval: 50 * time.Millisecond},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected a sane config: %v", i, err)
		}
	}
	// The checked paths reject before touching the network.
	if _, err := Dial("127.0.0.1:1", &Config{MSS: -1}); err == nil {
		t.Fatal("Dial accepted MSS=-1")
	}
	if _, err := Listen("127.0.0.1:0", &Config{SndBuf: -1}); err == nil {
		t.Fatal("Listen accepted SndBuf=-1")
	}
}

// TestConfigRandReproducible pins the injectable handshake randomness:
// same source, same draw sequence.
func TestConfigRandReproducible(t *testing.T) {
	draw := func(seed int64) [4]int32 {
		cfg := Config{Rand: rand.New(rand.NewSource(seed))} //nolint:gosec
		var out [4]int32
		for i := range out {
			out[i] = cfg.randInt31()
		}
		return out
	}
	if draw(5) != draw(5) {
		t.Fatal("same seed produced different handshake draws")
	}
	if draw(5) == draw(6) {
		t.Fatal("different seeds produced identical draws")
	}
	var defaulted Config
	_ = defaulted.randInt31() // nil Rand falls back to the global source
}
