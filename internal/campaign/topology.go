// Package campaign is the declarative experiment-campaign harness: it runs
// the real UDT stack (internal/core engines pumped as chaos.Peers) over
// multi-node netem topologies — N senders sharing a dumbbell bottleneck,
// multi-bottleneck parking-lot chains, star hubs — under the virtual clock,
// so a whole 100-flow shared-queue experiment is a deterministic function of
// its Spec and replays bit-identically from the same seed.
//
// A Topology names the nodes and the impaired links joining them; routers
// forward datagrams hop by hop through the fabric's bounded tail-drop
// queues, so cross-traffic on a shared bottleneck genuinely interacts. A
// Spec adds the flows (who sends to whom, which congestion-control law, how
// much, starting when) and Run drives the experiment, with a Monitor
// collecting per-flow telemetry through internal/trace sinks and per-link
// queue-occupancy/drop series, emitted as a machine-readable Report (JSONL
// rows + summary) whose Digest pins replay equality in CI.
package campaign

import (
	"fmt"
	"sort"

	"udt/internal/netem"
)

// hdrSize is the campaign encapsulation header: a 2-byte big-endian
// destination node index prepended to every datagram at its origin, read by
// routers to pick the next hop and stripped at the final leaf — the
// minimal routing shim that lets point-to-point netem paths compose into
// multi-hop topologies.
const hdrSize = 2

// link is one undirected edge; the same LinkConfig applies per direction.
type link struct {
	a, b string
	cfg  netem.LinkConfig
}

// Topology is a named-node graph joined by impaired links. Build one with
// AddNode/AddLink or the shape constructors (Dumbbell, Star, ParkingLot),
// then hand it to a Spec.
type Topology struct {
	nodes []string       // insertion order — the node-index space on the wire
	index map[string]int // name → wire index
	links []link
	adj   map[string][]string

	// nextHop[at][dst] is the neighbor `at` forwards to for datagrams
	// addressed to dst; built by routes().
	nextHop map[string]map[string]string
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		index: make(map[string]int),
		adj:   make(map[string][]string),
	}
}

// AddNode declares a node; adding the same name twice is a no-op.
func (t *Topology) AddNode(name string) {
	if _, ok := t.index[name]; ok {
		return
	}
	t.index[name] = len(t.nodes)
	t.nodes = append(t.nodes, name)
}

// AddLink joins a and b with the same impairment configuration in both
// directions, declaring either node as needed.
func (t *Topology) AddLink(a, b string, cfg netem.LinkConfig) {
	t.AddNode(a)
	t.AddNode(b)
	t.links = append(t.links, link{a: a, b: b, cfg: cfg})
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
	t.nextHop = nil // invalidate routes
}

// Nodes returns the node names in wire-index order.
func (t *Topology) Nodes() []string { return t.nodes }

// routes builds the deterministic next-hop table: one BFS per destination
// over sorted adjacency lists, so equal-length paths always resolve the
// same way regardless of construction order.
func (t *Topology) routes() map[string]map[string]string {
	if t.nextHop != nil {
		return t.nextHop
	}
	for _, n := range t.nodes {
		sort.Strings(t.adj[n])
	}
	t.nextHop = make(map[string]map[string]string, len(t.nodes))
	for _, n := range t.nodes {
		t.nextHop[n] = make(map[string]string)
	}
	for _, dst := range t.nodes {
		// BFS outward from dst; the first edge a node is reached over is the
		// edge it forwards back along.
		seen := map[string]bool{dst: true}
		queue := []string{dst}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range t.adj[cur] {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				t.nextHop[nb][dst] = cur
				queue = append(queue, nb)
			}
		}
	}
	return t.nextHop
}

// pathNodes returns the node sequence from src to dst (inclusive), or an
// error when no route exists.
func (t *Topology) pathNodes(src, dst string) ([]string, error) {
	hops := t.routes()
	path := []string{src}
	for at := src; at != dst; {
		nh, ok := hops[at][dst]
		if !ok {
			return nil, fmt.Errorf("campaign: no route %s → %s", src, dst)
		}
		path = append(path, nh)
		at = nh
	}
	return path, nil
}

// validate checks the flows fit the topology: every endpoint exists, no
// flow routes through another flow's endpoint (leaves do not forward, so a
// leaf on another flow's route would silently eat transit datagrams), and a
// node hosts several flow ends only when the topology has no router.
// Routed shapes give every flow end a leaf of its own, so one framing layer
// (node index or socket ID) is all a datagram ever carries.
func (t *Topology) validate(flows []FlowSpec) error {
	if len(flows) == 0 {
		return fmt.Errorf("campaign: no flows")
	}
	endpoint := make(map[string]int) // leaf name → first flow using it
	var shared error                 // the first node found hosting two flow ends
	for i, f := range flows {
		if f.Src == f.Dst {
			return fmt.Errorf("campaign: flow %d sends to itself (%q)", i, f.Src)
		}
		for _, n := range []string{f.Src, f.Dst} {
			if _, ok := t.index[n]; !ok {
				return fmt.Errorf("campaign: flow %d endpoint %q not in topology", i, n)
			}
			if j, dup := endpoint[n]; !dup {
				endpoint[n] = i
			} else if shared == nil {
				shared = fmt.Errorf("campaign: node %q is an endpoint of both flow %d and flow %d", n, j, i)
			}
		}
	}
	if shared != nil && len(endpoint) < len(t.nodes) {
		return shared // the topology has a router
	}
	for i, f := range flows {
		path, err := t.pathNodes(f.Src, f.Dst)
		if err != nil {
			return err
		}
		for _, n := range path[1 : len(path)-1] {
			if j, isLeaf := endpoint[n]; isLeaf {
				return fmt.Errorf("campaign: flow %d routes through node %q, an endpoint of flow %d", i, n, j)
			}
		}
	}
	return nil
}

// Dumbbell builds the classic shared-bottleneck shape: n sender leaves
// s0..s{n-1} on router "l", n receiver leaves d0..d{n-1} on router "r", and
// one l—r bottleneck every flow crosses. Returns the topology and the n
// si→di flows (CC, payload and start time left for the caller).
func Dumbbell(n int, access, bottleneck netem.LinkConfig) (*Topology, []FlowSpec) {
	t := NewTopology()
	t.AddLink("l", "r", bottleneck)
	flows := make([]FlowSpec, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("s%d", i)
		dst := fmt.Sprintf("d%d", i)
		t.AddLink(src, "l", access)
		t.AddLink("r", dst, access)
		flows[i] = FlowSpec{Src: src, Dst: dst}
	}
	return t, flows
}

// Star builds a hub-and-spoke shape: n sender leaves x0..x{n-1} and n
// receiver leaves y0..y{n-1}, every leaf joined to the single router "hub"
// by its own spoke link, and n xi→yi flows all crossing the hub — the
// incast/outcast shape where every spoke is both an access link and
// somebody's bottleneck.
func Star(n int, spoke netem.LinkConfig) (*Topology, []FlowSpec) {
	t := NewTopology()
	t.AddNode("hub")
	flows := make([]FlowSpec, n)
	for i := 0; i < n; i++ {
		src := fmt.Sprintf("x%d", i)
		dst := fmt.Sprintf("y%d", i)
		t.AddLink(src, "hub", spoke)
		t.AddLink("hub", dst, spoke)
		flows[i] = FlowSpec{Src: src, Dst: dst}
	}
	return t, flows
}

// ParkingLot builds the multi-bottleneck chain: segments+1 routers
// r0..r{segments} in a line, one long flow L0→L1 crossing every bottleneck,
// and one short flow si→di per segment crossing only its own — the standard
// topology for asking whether a long flow is crowded out multiplicatively
// by successive bottlenecks.
func ParkingLot(segments int, access, bottleneck netem.LinkConfig) (*Topology, []FlowSpec) {
	t := NewTopology()
	for i := 0; i < segments; i++ {
		t.AddLink(fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", i+1), bottleneck)
	}
	t.AddLink("L0", "r0", access)
	t.AddLink(fmt.Sprintf("r%d", segments), "L1", access)
	flows := []FlowSpec{{Src: "L0", Dst: "L1"}}
	for i := 0; i < segments; i++ {
		src := fmt.Sprintf("s%d", i)
		dst := fmt.Sprintf("d%d", i)
		t.AddLink(src, fmt.Sprintf("r%d", i), access)
		t.AddLink(fmt.Sprintf("r%d", i+1), dst, access)
		flows = append(flows, FlowSpec{Src: src, Dst: dst})
	}
	return t, flows
}
