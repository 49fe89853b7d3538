package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"udt"
)

const (
	// chunkSize is the bytes per sender Write.
	chunkSize = 1 << 20
	// bulkTrials is how many connections a bulk run measures in turn, each
	// for several seconds; the run pools them.
	bulkTrials = 3
	// bulkSetups is how many connections each bulk trial sets up.
	bulkSetups = 5
	readSize   = 256 << 10
	// bulkRcvBuf is the receiving socket's kernel buffer (the kernel
	// doubles it). With the stack's 8 MiB, loopback never drops once slow
	// start is over and each connection's rate wanders by a factor of two;
	// with 256 KiB the queue overflows, so the loss list and the
	// controller's decrease are exercised and connections agree.
	bulkRcvBuf = 256 << 10
	// benchPSK keys the sealed workload and the seal/open micro-timing.
	benchPSK = "udtbench pre-shared key, 32 byte"
	// slowStartTimeout bounds the wait for the controller to leave slow
	// start, which takes well under a second on loopback.
	slowStartTimeout = 5 * time.Second
	// drainTimeout bounds the wait for the sender's last bytes after the
	// window; a healthy loopback drains in well under a second.
	drainTimeout = 30 * time.Second
)

// bulkPair is one established loopback connection: a listener on a shared
// socket (so its Mux counters are visible) and a dialed private socket.
type bulkPair struct {
	mux      *udt.Mux
	ln       *udt.Listener
	srv, cli *udt.Conn
}

func (p *bulkPair) close() {
	p.cli.Close() //nolint:errcheck // teardown; errors change nothing
	p.srv.Close() //nolint:errcheck
	p.ln.Close()  //nolint:errcheck
	p.mux.Close() //nolint:errcheck
}

// dialBulk opens a listener and dials it, returning once both ends hold
// the established connection.
func dialBulk(cfg *udt.Config, tr *tracer) (*bulkPair, error) {
	t := time.Now()
	mux, err := loopbackMux(cfg, bulkRcvBuf)
	if err != nil {
		return nil, err
	}
	ln, err := mux.Listen()
	if err != nil {
		mux.Close() //nolint:errcheck
		return nil, fmt.Errorf("listen: %w", err)
	}
	tr.record(0, 0, 0, "listen", t, time.Now())
	type accepted struct {
		c   *udt.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		t := time.Now()
		c, err := ln.Accept()
		tr.record(0, 0, 0, "accept", t, time.Now())
		acc <- accepted{c, err}
	}()
	t = time.Now()
	cli, err := udt.Dial(mux.Addr().String(), cfg)
	tr.record(0, 0, 0, "dial", t, time.Now())
	if err != nil {
		mux.Close() //nolint:errcheck // also ends the pending Accept
		<-acc
		return nil, fmt.Errorf("dial: %w", err)
	}
	a := <-acc
	if a.err != nil {
		cli.Close() //nolint:errcheck
		mux.Close() //nolint:errcheck
		return nil, fmt.Errorf("accept: %w", a.err)
	}
	return &bulkPair{mux: mux, ln: ln, srv: a.c, cli: cli}, nil
}

// bulkConfig is the bulk workloads' endpoint configuration: defaults,
// with Secure UDT and a sealed data channel when sealed.
func bulkConfig(sealed bool) func() *udt.Config {
	return func() *udt.Config {
		if sealed {
			return &udt.Config{PSK: []byte(benchPSK), AEAD: true}
		}
		return &udt.Config{}
	}
}

// bulkTrial sets up one connection and measures one window of the bulk
// workload on it: the sender writes 1 MiB chunks of the seeded stream as
// fast as Write accepts them and the receiver verifies every byte. The
// window opens once the controller has left slow start and a further
// warm-up has passed. Each chunk is timed from the start of its Write to
// its last byte verified. A non-nil tracer also collects the per-layer
// inputs.
func bulkTrial(cfg *udt.Config, o options, idx int, window time.Duration, tr *tracer) (*trial, error) {
	st := newStream(o.seed)
	// A set-up takes milliseconds, so each trial sets up several times for
	// setup_s and keeps the last connection.
	res := &trial{}
	var pair *bulkPair
	start := time.Now()
	var allocs, heapKB float64
	for k := 0; k < bulkSetups; k++ {
		if pair != nil {
			pair.close()
		}
		h0 := liveHeapMB()
		a0 := sampleRuntime(nil).allocs
		t0 := time.Now()
		var err error
		if pair, err = dialBulk(cfg, tr); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		allocs = float64(sampleRuntime(nil).allocs - a0)
		heapKB = (liveHeapMB() - h0) * 1024
	}
	defer pair.close()
	res.gso, res.gro = pair.mux.Offload()

	// The sender hands each chunk's Write start to the receiver, which
	// verifies in stream order and times the chunk when its last byte
	// arrives. Chunks of the window are counted once the window opens.
	root, began := tr.newID(), time.Now()
	starts := make(chan time.Time, 1024)
	var delivered atomic.Int64
	var inWindow atomic.Bool
	type recvResult struct {
		v    *verifier
		fct  []float64 // ms, chunks completed in the window
		done int64     // chunks completed in the window
		bad  int64     // chunks of the window containing a mismatched byte
	}
	recvd := make(chan recvResult, 1)
	go func() {
		v := newVerifier(st)
		buf := make([]byte, readSize)
		var r recvResult
		var chunkStart time.Time
		chunkBad := false
		for {
			t := time.Now()
			n, err := pair.srv.Read(buf)
			tr.record(0, root, 0, "read", t, time.Now())
			for p := buf[:n]; len(p) > 0; {
				off := delivered.Load()
				if off%chunkSize == 0 {
					chunkStart, chunkBad = <-starts, false
				}
				k := min(len(p), int(chunkSize-off%chunkSize))
				if !v.check(p[:k]) {
					chunkBad = true
				}
				delivered.Store(off + int64(k))
				p = p[k:]
				if (off+int64(k))%chunkSize == 0 && inWindow.Load() {
					r.done++
					r.fct = append(r.fct, float64(time.Since(chunkStart))/1e6)
					if chunkBad {
						r.bad++
					}
				}
			}
			if err != nil {
				break
			}
		}
		r.v = v
		recvd <- r
	}()

	type sendResult struct {
		written int64
		err     error
	}
	var stop atomic.Bool
	sent := make(chan sendResult, 1)
	go func() {
		var r sendResult
		buf := make([]byte, chunkSize)
		for k := int64(0); !stop.Load(); k++ {
			st.fill(buf, k*chunkSize)
			t := time.Now()
			starts <- t
			n, err := pair.cli.Write(buf)
			tr.record(0, root, 0, "write", t, time.Now())
			r.written += int64(n)
			if err != nil {
				r.err = err
				break
			}
		}
		if r.err == nil {
			deadline := time.Now().Add(drainTimeout)
			for !pair.cli.Drained() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !pair.cli.Drained() {
				r.err = fmt.Errorf("sender not drained after %v", drainTimeout)
			}
		}
		t := time.Now()
		pair.cli.Close() //nolint:errcheck // the receiver's EOF is the check
		tr.record(0, root, 0, "close", t, time.Now())
		sent <- r
	}()

	// Slow start is not the steady state: the warm-up begins once the
	// controller paces.
	for deadline := time.Now().Add(slowStartTimeout); pair.cli.Stats().CCPeriodUs == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if pair.cli.Stats().CCPeriodUs == 0 {
		fmt.Fprintf(os.Stderr, "bulk: still in slow start after %v; measuring anyway\n", slowStartTimeout)
	}
	time.Sleep(o.warmup)
	inWindow.Store(true)
	c0 := countersOf(pair.cli.Stats()).add(countersOf(pair.srv.Stats()), 1)
	from := sampleRuntime(cfg.Ledger)
	d0 := delivered.Load()
	end := from.at.Add(window)
	var ccPeriod, ccWindow []float64
	for tr != nil && time.Until(end) > 0 {
		// Sample the controller while the window runs.
		time.Sleep(min(100*time.Millisecond, time.Until(end)))
		s := pair.cli.Stats()
		ccPeriod = append(ccPeriod, s.CCPeriodUs)
		ccWindow = append(ccWindow, s.CCWindowPkts)
	}
	time.Sleep(time.Until(end))
	to := sampleRuntime(cfg.Ledger)
	d1 := delivered.Load()
	inWindow.Store(false)
	cliSt, srvSt := pair.cli.Stats(), pair.srv.Stats()
	c1 := countersOf(cliSt).add(countersOf(srvSt), 1)
	stop.Store(true)
	res.heapMB = liveHeapMB()
	muxFlows := pair.mux.Flows()

	s := <-sent
	r := <-recvd
	tr.record(root, 0, 0, "transfer", began, time.Now())
	if s.err != nil {
		res.mismatch = fmt.Errorf("sender: %w", s.err)
	} else if err := r.v.finish(s.written); err != nil {
		res.mismatch = err
	}
	res.window = to.at.Sub(from.at)
	res.cpu = to.cpu - from.cpu
	res.bytes = d1 - d0
	res.fct = r.fct
	res.units = r.done
	res.attempted = r.done
	res.failed = r.bad
	if res.mismatch != nil && res.failed == 0 {
		res.failed = 1
	}
	if tr != nil {
		res.layers = &layerInput{
			c: c1.add(c0, -1), from: from, to: to,
			ccPeriod: ccPeriod, ccWindow: ccWindow,
			allocsFlow: allocs, heapKBFlow: heapKB,
			muxFlows: muxFlows, peakGor: cliSt.PeakGoroutines, fctMs: res.fct,
			dialMs:     tr.stats("dial", start, to.at).durs,
			closeMs:    tr.stats("close", from.at, time.Now()).durs,
			writeShare: ratio(tr.stats("write", from.at, to.at).total.Seconds(), res.window.Seconds()),
		}
	}
	return res, nil
}
