package mux

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"udt/internal/packet"
)

// recFlow records delivered datagram lengths and first bytes.
type recFlow struct {
	mu    sync.Mutex
	count int
	last  []byte
}

func (f *recFlow) HandleDatagram(raw []byte) {
	f.mu.Lock()
	f.count++
	f.last = append(f.last[:0], raw...)
	f.mu.Unlock()
}

func (f *recFlow) snapshot() (int, []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.count, append([]byte(nil), f.last...)
}

var testAddr net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}

// dataPacket builds a bare data packet with the given seq and payload.
func dataPacket(t testing.TB, seq int32, payload string) []byte {
	t.Helper()
	buf := make([]byte, packet.DataHeaderSize+len(payload))
	n, err := packet.EncodeData(buf, &packet.Data{Seq: seq, Payload: []byte(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// prefixed wraps a bare packet with a destination-socket-ID prefix.
func prefixed(id int32, bare []byte) []byte {
	out := make([]byte, DestPrefix+len(bare))
	PutDest(out, id)
	copy(out[DestPrefix:], bare)
	return out
}

func TestIDValid(t *testing.T) {
	cases := []struct {
		id   uint32
		want bool
	}{
		{0, false},                  // data packet, seq 0
		{0x7FFFFFFF, false},         // data packet, max seq
		{1 << 31, false},            // bare handshake first word
		{1<<31 | 0x00070000, false}, // message-drop control, highest real type
		{1<<31 | 0x00080000, true},  // first word past the control types
		{1<<31 | 0x7FFF0000, true},  // top of the type field
		{0x00080000, false},         // type bits fine but top bit clear
		{1<<31 | 0x00080001, true},  // low bits are free
		{1<<31 | 0x0008FFFF, true},  // low bits are free
	}
	for _, c := range cases {
		if got := IDValid(int32(c.id)); got != c.want {
			t.Errorf("IDValid(%#x) = %v, want %v", c.id, got, c.want)
		}
	}
	// MakeID lands every word in the valid space, and bare first words
	// never land there.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		id := MakeID(int32(rng.Uint32()))
		if !IDValid(id) {
			t.Fatalf("MakeID produced invalid ID %#x", uint32(id))
		}
	}
	for ct := packet.TypeHandshake; ct <= packet.TypeMessageDrop; ct++ {
		w0 := uint32(1<<31) | uint32(ct)<<16
		if IDValid(int32(w0)) {
			t.Errorf("control type %v first word %#x classified as socket ID", ct, w0)
		}
	}
}

func TestDispatchOrder(t *testing.T) {
	var hsCount int
	var hsFrom net.Addr
	c := NewCore(func(raw []byte, from net.Addr) { hsCount++; hsFrom = from })

	idFlow := &recFlow{}
	id := c.AllocID(rand.New(rand.NewSource(2)).Int31, idFlow)
	if !IDValid(id) {
		t.Fatalf("AllocID returned invalid ID %#x", uint32(id))
	}
	addrFlow := &recFlow{}
	c.RegisterAddr(KeyOf(testAddr), addrFlow)

	// 1. Short datagrams are counted, never delivered.
	c.Dispatch([]byte{1, 2, 3}, testAddr)
	if _, short := c.Counters(); short != 1 {
		t.Fatalf("short counter = %d, want 1", short)
	}

	// 2. A valid prefix with a registered flow delivers the bare packet.
	bare := dataPacket(t, 7, "hello")
	c.Dispatch(prefixed(id, bare), testAddr)
	if n, last := idFlow.snapshot(); n != 1 || string(last) != string(bare) {
		t.Fatalf("ID flow got %d datagrams, last %q; want 1 × %q", n, last, bare)
	}

	// A valid prefix with a truncated packet behind it is short, not unknown.
	c.Dispatch(prefixed(id, nil), testAddr)
	if _, short := c.Counters(); short != 2 {
		t.Fatalf("short counter = %d, want 2", short)
	}

	// An unknown ID is counted, not routed to the addr table.
	other := MakeID(id + 12345)
	if other == id {
		other = MakeID(other + 1)
	}
	c.Dispatch(prefixed(other, bare), testAddr)
	if unknown, _ := c.Counters(); unknown != 1 {
		t.Fatalf("unknown counter = %d, want 1", unknown)
	}
	if n, _ := addrFlow.snapshot(); n != 0 {
		t.Fatal("unknown-ID datagram leaked into the addr table")
	}

	// 3. Bare handshakes reach the handler even with an addr flow bound.
	hsBuf := make([]byte, 64)
	hn, err := packet.EncodeHandshake(hsBuf, &packet.Handshake{Version: packet.Version, ReqType: 1, ConnID: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Dispatch(hsBuf[:hn], testAddr)
	if hsCount != 1 || hsFrom != testAddr {
		t.Fatalf("handshake handler count=%d from=%v", hsCount, hsFrom)
	}
	if n, _ := addrFlow.snapshot(); n != 0 {
		t.Fatal("handshake leaked into the addr table")
	}

	// 4. Bare non-handshake traffic goes to the addr table.
	c.Dispatch(bare, testAddr)
	if n, last := addrFlow.snapshot(); n != 1 || string(last) != string(bare) {
		t.Fatalf("addr flow got %d datagrams, last %q; want 1 × %q", n, last, bare)
	}
	// Unknown address → counted.
	stranger := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 9), Port: 1}
	c.Dispatch(bare, stranger)
	if unknown, _ := c.Counters(); unknown != 2 {
		t.Fatalf("unknown counter = %d, want 2", unknown)
	}

	// Unregister closes both routes.
	c.Unregister(id)
	c.UnregisterAddr(KeyOf(testAddr), addrFlow)
	c.Dispatch(prefixed(id, bare), testAddr)
	c.Dispatch(bare, testAddr)
	if unknown, _ := c.Counters(); unknown != 4 {
		t.Fatalf("unknown counter after unregister = %d, want 4", unknown)
	}
	if c.Flows() != 0 {
		t.Fatalf("Flows() = %d after unregister", c.Flows())
	}
}

func TestUnregisterAddrGuard(t *testing.T) {
	c := NewCore(nil)
	old, repl := &recFlow{}, &recFlow{}
	key := KeyOf(testAddr)
	c.RegisterAddr(key, old)
	c.RegisterAddr(key, repl) // replacement takes over the address
	c.UnregisterAddr(key, old)
	if c.LookupAddr(key) != repl {
		t.Fatal("stale UnregisterAddr evicted the replacement flow")
	}
	c.UnregisterAddr(key, repl)
	if c.LookupAddr(key) != nil {
		t.Fatal("UnregisterAddr left the binding in place")
	}
}

func TestAllocIDUnique(t *testing.T) {
	c := NewCore(nil)
	rng := rand.New(rand.NewSource(3))
	seen := make(map[int32]bool)
	for i := 0; i < 5000; i++ {
		id := c.AllocID(rng.Int31, &recFlow{})
		if !IDValid(id) {
			t.Fatalf("invalid ID %#x", uint32(id))
		}
		if seen[id] {
			t.Fatalf("duplicate ID %#x", uint32(id))
		}
		seen[id] = true
	}
	if c.Flows() != 5000 {
		t.Fatalf("Flows() = %d, want 5000", c.Flows())
	}
	// Register refuses duplicates and invalid IDs.
	for id := range seen {
		if c.Register(id, &recFlow{}) {
			t.Fatalf("Register accepted in-use ID %#x", uint32(id))
		}
		break
	}
	if c.Register(42, &recFlow{}) {
		t.Fatal("Register accepted an invalid ID")
	}
}

// TestDispatchConcurrent exercises Dispatch against concurrent
// register/unregister churn; it exists for the -race detector.
func TestDispatchConcurrent(t *testing.T) {
	c := NewCore(func([]byte, net.Addr) {})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := c.AllocID(rng.Int31, &recFlow{})
				c.Unregister(id)
			}
		}(int64(g))
	}
	bare := dataPacket(t, 1, "x")
	pkt := prefixed(MakeID(0x1234567), bare)
	for i := 0; i < 20000; i++ {
		c.Dispatch(pkt, testAddr)
		c.Dispatch(bare, testAddr)
	}
	close(stop)
	wg.Wait()
}

// TestMuxDemuxZeroAlloc pins the acceptance criterion: the socket-ID
// dispatch path allocates nothing in steady state.
func TestMuxDemuxZeroAlloc(t *testing.T) {
	c := NewCore(nil)
	f := &recFlow{}
	id := c.AllocID(rand.New(rand.NewSource(4)).Int31, f)
	pkt := prefixed(id, dataPacket(t, 1, "payload"))
	allocs := testing.AllocsPerRun(1000, func() {
		c.Dispatch(pkt, testAddr)
	})
	if allocs != 0 {
		t.Fatalf("demux path allocates %.1f times per packet, want 0", allocs)
	}
}

// TestMuxDemuxBareZeroAlloc gates the peer-address path: a bare datagram
// from a *net.UDPAddr — every data packet a paper-era client sends to a
// multiplexed listener — is routed without allocating.
func TestMuxDemuxBareZeroAlloc(t *testing.T) {
	c := NewCore(nil)
	f := &recFlow{}
	c.RegisterAddr(KeyOf(testAddr), f)
	pkt := dataPacket(t, 1, "payload")
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9000}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Dispatch(pkt, from)
	})
	if allocs != 0 {
		t.Fatalf("bare demux path allocates %.1f times per packet, want 0", allocs)
	}
	if n, _ := f.snapshot(); n == 0 {
		t.Fatal("bare datagram not delivered to the address flow")
	}
}

// nameAddr is a non-UDP transport address, like fabric.Addr.
type nameAddr string

func (a nameAddr) Network() string { return "fabric" }
func (a nameAddr) String() string  { return string(a) }

func TestKeyOf(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1).To4(), Port: 7}
	mapped := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 7} // 16-byte form
	if KeyOf(v4) != KeyOf(mapped) {
		t.Fatal("IPv4 and IPv4-mapped IPv6 spellings of one peer have different keys")
	}
	if KeyOf(v4) == KeyOf(&net.UDPAddr{IP: v4.IP, Port: 8}) {
		t.Fatal("different ports share a key")
	}
	if KeyOf(nameAddr("a")) != KeyOf(nameAddr("a")) || KeyOf(nameAddr("a")) == KeyOf(nameAddr("b")) {
		t.Fatal("named addresses must key by name")
	}
	if KeyOf(nameAddr("10.0.0.1:7")) == KeyOf(v4) {
		t.Fatal("a named address collided with a UDP address")
	}
}

// BenchmarkMuxDemux measures the per-packet cost of the socket-ID dispatch
// path (one registered flow). Recorded in BENCH_baseline.json.
func BenchmarkMuxDemux(b *testing.B) {
	c := NewCore(nil)
	f := &recFlow{}
	id := c.AllocID(rand.New(rand.NewSource(5)).Int31, f)
	pkt := prefixed(id, dataPacket(b, 1, "0123456789abcdef"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Dispatch(pkt, testAddr)
	}
}

// nullFlow discards datagrams without locking, isolating table-lookup cost.
type nullFlow struct{ n int }

func (f *nullFlow) HandleDatagram([]byte) { f.n++ }

// BenchmarkMuxDemuxFlows measures how dispatch scales with the number of
// flows resident on one socket — the flows-per-socket scaling record for
// BENCH_baseline.json.
func BenchmarkMuxDemuxFlows(b *testing.B) {
	for _, flows := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			c := NewCore(nil)
			rng := rand.New(rand.NewSource(6))
			pkts := make([][]byte, flows)
			bare := dataPacket(b, 1, "0123456789abcdef")
			for i := range pkts {
				id := c.AllocID(rng.Int31, &nullFlow{})
				pkts[i] = prefixed(id, bare)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Dispatch(pkts[i&(flows-1)], testAddr)
			}
		})
	}
}

// BenchmarkMuxDemuxParallel drives dispatch from GOMAXPROCS goroutines to
// expose shard-lock contention.
func BenchmarkMuxDemuxParallel(b *testing.B) {
	c := NewCore(nil)
	rng := rand.New(rand.NewSource(7))
	const flows = 256
	pkts := make([][]byte, flows)
	bare := dataPacket(b, 1, "0123456789abcdef")
	for i := range pkts {
		id := c.AllocID(rng.Int31, &nullFlow{})
		pkts[i] = prefixed(id, bare)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int(binary.BigEndian.Uint32(pkts[0]) & 0xFF)
		for pb.Next() {
			c.Dispatch(pkts[i&(flows-1)], testAddr)
			i++
		}
	})
}
