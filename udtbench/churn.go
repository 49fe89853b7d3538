package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"udt"
)

const (
	// residentFlows idle flows stay open through the window, so the mux
	// table and the timer wheels hold a fixed, large population. At 32
	// packets of send and receive buffer each, a flow pair holds ~200 KB
	// of heap; 2000 keeps the process near 400 MB.
	residentFlows = 2000
	churnRate     = 1000.0 // new flows per second, Poisson
	requestSize   = 512
	responseSize  = 4096
	// maxInFlight bounds concurrent churn flows (one buffer slot each).
	// At the nominal rate about two are open at a time; when the stack
	// stalls, the generator waits for a slot and its lateness shows it.
	maxInFlight = 256
	dialers     = 16 // goroutines establishing the resident set
	// churnSetups is how many times each trial establishes the resident
	// set; one set-up per trial left setup_s swinging by a third between
	// runs.
	churnSetups = 3
	// flowGrace bounds the wait for churn flows still open when the
	// window ends.
	flowGrace = 10 * time.Second
)

func churnConfig() *udt.Config {
	return &udt.Config{SndBuf: 32, RcvBuf: 32, MaxFlowWindow: 32, PerfHistory: -1}
}

// arrivals draws the due times of a Poisson process of the given rate per
// second over [0, span).
func arrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var dues []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= span {
			return dues
		}
		dues = append(dues, at)
	}
}

// flowOffset is where flow i's request and response sit in the seeded
// stream; the request's first 8 bytes are replaced by i.
func flowOffset(i int64) int64 { return i * (requestSize + responseSize) }

func fillRequest(st *stream, req []byte, i int64) {
	st.fill(req, flowOffset(i))
	binary.LittleEndian.PutUint64(req, uint64(i))
}

// churnRig is one client Mux and one listener socket with the resident
// flows established between them.
type churnRig struct {
	cmux, smux *udt.Mux
	ln         *udt.Listener
	residents  []*udt.Conn
	srvFirst   atomic.Pointer[udt.Conn] // first server-side resident
	accepted   atomic.Int64
	serve      atomic.Pointer[func(*udt.Conn)] // set once residents are in
	serving    sync.WaitGroup
	acceptDone chan struct{}
}

// loopbackMux opens a shared UDT socket on a fresh loopback port. A
// non-zero rcvBuf then overrides the kernel receive buffer the stack chose.
func loopbackMux(cfg *udt.Config, rcvBuf int) (*udt.Mux, error) {
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	m, err := udt.NewMux(sock, cfg)
	if err != nil {
		sock.Close() //nolint:errcheck
		return nil, err
	}
	if rcvBuf > 0 {
		if err := sock.SetReadBuffer(rcvBuf); err != nil {
			m.Close() //nolint:errcheck
			return nil, fmt.Errorf("receive buffer: %w", err)
		}
	}
	return m, nil
}

// newChurnRig opens both sockets and establishes n resident flows.
func newChurnRig(cfg *udt.Config, n int, tr *tracer) (*churnRig, error) {
	r := &churnRig{acceptDone: make(chan struct{}), residents: make([]*udt.Conn, n)}
	var err error
	if r.smux, err = loopbackMux(cfg, 0); err != nil {
		return nil, err
	}
	if r.cmux, err = loopbackMux(cfg, 0); err != nil {
		r.smux.Close() //nolint:errcheck
		return nil, err
	}
	t := time.Now()
	if r.ln, err = r.smux.Listen(); err != nil {
		r.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	tr.record(0, 0, 0, "listen", t, time.Now())
	go func() {
		defer close(r.acceptDone)
		for {
			t := time.Now()
			c, err := r.ln.Accept()
			if err != nil {
				return
			}
			tr.record(0, 0, 0, "accept", t, time.Now())
			if r.accepted.Add(1) == 1 {
				r.srvFirst.Store(c)
			}
			if serve := r.serve.Load(); serve != nil {
				r.serving.Add(1)
				go (*serve)(c)
			}
		}
	}()
	var wg sync.WaitGroup
	var dialErr atomic.Value
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < n; i += dialers {
				t := time.Now()
				c, err := r.cmux.Dial(r.smux.Addr())
				tr.record(0, 0, 0, "dial", t, time.Now())
				if err != nil {
					dialErr.Store(fmt.Errorf("resident dial %d: %w", i, err))
					return
				}
				r.residents[i] = c
			}
		}(d)
	}
	wg.Wait()
	if err, _ := dialErr.Load().(error); err != nil {
		r.close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.accepted.Load() < int64(n) {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("accepted %d of %d resident flows", r.accepted.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return r, nil
}

// close tears both sockets down and waits for the accept loop and every
// server handler.
func (r *churnRig) close() {
	r.cmux.Close() //nolint:errcheck // teardown; errors change nothing
	if r.ln != nil {
		r.ln.Close() //nolint:errcheck
	}
	r.smux.Close() //nolint:errcheck
	if r.ln != nil {
		<-r.acceptDone
	}
	r.serving.Wait()
}

// socketStats returns both sockets' socket-wide counters (GRO, mux drops),
// read through one resident flow on each side.
func (r *churnRig) socketStats() counters {
	s := countersOf(r.residents[0].Stats()).socketOnly()
	if c := r.srvFirst.Load(); c != nil {
		s = s.add(countersOf(c.Stats()).socketOnly(), 1)
	}
	return s
}

// slot is one in-flight churn flow's buffers.
type slot struct {
	req, resp, want []byte
}

// churnTally collects what the churn flows measured.
type churnTally struct {
	mu        sync.Mutex
	mismatch  int64 // flows (any side) whose content did not verify
	firstErr  error
	flowStats counters  // traced: per-flow counters of window flows, both sides
	ccPeriod  []float64 // traced: congestion period at close, µs
	ccWindow  []float64 // traced: congestion window at close, packets
	// Per flow index: whether either side failed, and the completion time
	// in ms once the client verified the response (0 before).
	failed []atomic.Bool
	fct    []float64
}

// addStats folds a closing window flow's counters into the tally.
func (t *churnTally) addStats(s udt.Stats) {
	t.mu.Lock()
	t.flowStats = t.flowStats.add(countersOf(s).flowOnly(), 1)
	t.ccPeriod = append(t.ccPeriod, s.CCPeriodUs)
	t.ccWindow = append(t.ccWindow, s.CCWindowPkts)
	t.mu.Unlock()
}

// fail records a failure of flow i (-1 when the flow is unknown) on
// either side.
func (t *churnTally) fail(i int64, mismatch bool, err error) {
	if i >= 0 && i < int64(len(t.failed)) {
		t.failed[i].Store(true)
	}
	t.mu.Lock()
	if mismatch {
		t.mismatch++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// churnTrial sets up one rig and measures one window of the rpc_churn
// workload on it: the resident flows stay idle while short
// request/response flows arrive as a seeded Poisson process, each timed
// from its due time. Trial idx draws its own arrivals. A non-nil tracer
// also collects the per-layer inputs.
func churnTrial(cfg *udt.Config, o options, idx int, window time.Duration, tr *tracer) (*trial, error) {
	traced := tr != nil
	st := newStream(o.seed)
	rng := rand.New(rand.NewSource(o.seed<<8 + int64(idx)))
	// Each trial sets up churnSetups times for setup_s and keeps the last
	// rig.
	res := &trial{}
	var rig *churnRig
	var allocsFlow, heapKBFlow float64
	for k := 0; k < churnSetups; k++ {
		if rig != nil {
			rig.close()
		}
		h0 := liveHeapMB()
		a0 := sampleRuntime(nil).allocs
		t0 := time.Now()
		var err error
		if rig, err = newChurnRig(cfg, o.residents, tr); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		allocsFlow = ratio(float64(sampleRuntime(nil).allocs-a0), float64(o.residents))
		heapKBFlow = ratio((liveHeapMB()-h0)*1024, float64(o.residents))
	}
	defer rig.close()
	res.gso, res.gro = rig.cmux.Offload()

	// Arrivals are drawn up front so the window's flows are known: flow i
	// is due dues[i] after the generator starts, and belongs to the window
	// when that is past the warm-up.
	dues := arrivals(rng, o.rate, o.warmup+window)
	inWindow := func(i int64) bool { return i >= 0 && i < int64(len(dues)) && dues[i] >= o.warmup }

	tally := churnTally{failed: make([]atomic.Bool, len(dues)), fct: make([]float64, len(dues))}
	serve := func(c *udt.Conn) {
		defer rig.serving.Done()
		t0 := time.Now()
		req := make([]byte, requestSize)
		_, err := io.ReadFull(c, req)
		t1 := time.Now()
		i := int64(binary.LittleEndian.Uint64(req))
		if err != nil || i < 0 || i >= int64(len(dues)) {
			c.Close() //nolint:errcheck
			tally.fail(-1, false, fmt.Errorf("server read request: %v (flow %d)", err, i))
			return
		}
		want := make([]byte, requestSize)
		fillRequest(st, want, i)
		if !bytes.Equal(req, want) {
			c.Close() //nolint:errcheck
			tally.fail(i, true, fmt.Errorf("flow %d: request mismatch", i))
			return
		}
		resp := make([]byte, responseSize)
		st.fill(resp, flowOffset(i)+requestSize)
		_, err = c.Write(resp)
		t2 := time.Now()
		// The client closes after verifying the response; its shutdown
		// ends this read.
		if err == nil {
			_, err = c.Read(req[:1])
		}
		t3 := time.Now()
		if traced && inWindow(i) {
			tally.addStats(c.Stats())
		}
		c.Close() //nolint:errcheck
		if tr != nil {
			root := tr.record(0, i+1, i, "serve", t0, time.Now())
			tr.record(0, root, i, "server.read", t0, t1)
			tr.record(0, root, i, "server.write", t1, t2)
			tr.record(0, root, i, "server.read", t2, t3)
			tr.record(0, root, i, "server.close", t3, time.Now())
		}
		if err == io.EOF && o.serveFault != nil {
			if ferr := o.serveFault(i); ferr != nil {
				err = ferr
			}
		}
		if err != io.EOF {
			tally.fail(i, false, fmt.Errorf("flow %d: server wait for close: %v", i, err))
		}
	}
	rig.serve.Store(&serve)

	slots := make(chan *slot, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		slots <- &slot{make([]byte, requestSize), make([]byte, responseSize), make([]byte, responseSize)}
	}
	flow := func(i int64, due time.Time, s *slot) {
		defer func() { slots <- s }()
		root := i + 1
		t := time.Now()
		c, err := rig.cmux.Dial(rig.smux.Addr())
		tr.record(0, root, i, "dial", t, time.Now())
		if err == nil {
			fillRequest(st, s.req, i)
			t = time.Now()
			_, err = c.Write(s.req)
			tr.record(0, root, i, "write", t, time.Now())
		}
		mismatch := false
		if err == nil {
			t = time.Now()
			_, err = io.ReadFull(c, s.resp)
			tr.record(0, root, i, "read", t, time.Now())
			st.fill(s.want, flowOffset(i)+requestSize)
			if err == nil && !bytes.Equal(s.resp, s.want) {
				mismatch, err = true, fmt.Errorf("flow %d: response mismatch", i)
			}
		}
		if c != nil {
			if traced && inWindow(i) {
				tally.addStats(c.Stats())
			}
			t = time.Now()
			c.Close() //nolint:errcheck
			tr.record(0, root, i, "close", t, time.Now())
		}
		fct := time.Since(due)
		tr.record(root, 0, i, "flow", due, time.Now())
		if err != nil {
			tally.fail(i, mismatch, err)
		} else {
			tally.fct[i] = float64(fct) / 1e6
		}
	}

	var flows sync.WaitGroup
	var late []float64
	var from rtSample
	var sock0 counters
	genStart := time.Now()
	for i, d := range dues {
		due := genStart.Add(d)
		if d >= o.warmup && from.at.IsZero() {
			time.Sleep(time.Until(genStart.Add(o.warmup)))
			from, sock0 = sampleRuntime(cfg.Ledger), rig.socketStats()
		}
		time.Sleep(time.Until(due))
		s := <-slots
		if d >= o.warmup {
			late = append(late, float64(time.Since(due))/1e6)
		}
		flows.Add(1)
		go func(i int64, s *slot) {
			defer flows.Done()
			flow(i, due, s)
		}(int64(i), s)
	}
	if from.at.IsZero() {
		time.Sleep(time.Until(genStart.Add(o.warmup)))
		from, sock0 = sampleRuntime(cfg.Ledger), rig.socketStats()
	}
	time.Sleep(time.Until(genStart.Add(o.warmup + window)))
	to := sampleRuntime(cfg.Ledger)
	sock1 := rig.socketStats()
	heap := liveHeapMB()
	muxFlows := rig.cmux.Flows()
	peak := rig.residents[0].Stats().PeakGoroutines

	// A flow counts once both of its halves have ended: the server half
	// can still fail after the client verified the response.
	awaitOrClose(&flows, rig.cmux)
	awaitOrClose(&rig.serving, rig.smux)
	var fct []float64
	for i := range dues {
		switch {
		case !inWindow(int64(i)):
		case tally.failed[i].Load():
			res.failed++
		default:
			fct = append(fct, tally.fct[i])
		}
	}
	res.attempted = res.failed + int64(len(fct))

	tally.mu.Lock()
	defer tally.mu.Unlock()
	if tally.mismatch > 0 {
		res.mismatch = fmt.Errorf("%d flows failed verification: %v", tally.mismatch, tally.firstErr)
	} else if tally.firstErr != nil {
		fmt.Fprintln(os.Stderr, "rpc_churn: first failure:", tally.firstErr)
	}
	res.window = to.at.Sub(from.at)
	res.cpu = to.cpu - from.cpu
	res.units = int64(len(fct))
	res.bytes = res.units * (requestSize + responseSize)
	res.fct = fct
	res.heapMB = heap
	if traced {
		res.layers = &layerInput{
			c: tally.flowStats.add(sock1, 1).add(sock0, -1), from: from, to: to,
			ccPeriod: tally.ccPeriod, ccWindow: tally.ccWindow,
			allocsFlow: allocsFlow, heapKBFlow: heapKBFlow,
			muxFlows: muxFlows, peakGor: peak, lateMs: late, fctMs: fct,
			dialMs:     tr.stats("dial", from.at, to.at).durs,
			closeMs:    tr.stats("close", from.at, to.at).durs,
			writeShare: ratio(tr.stats("write", from.at, to.at).total.Seconds(), tr.stats("flow", from.at, to.at).total.Seconds()),
		}
	}
	return res, nil
}

// awaitOrClose waits for wg, closing m if that takes longer than
// flowGrace: stuck flows then fail once their socket is gone.
func awaitOrClose(wg *sync.WaitGroup, m *udt.Mux) {
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(flowGrace):
		m.Close() //nolint:errcheck
		<-finished
	}
}
