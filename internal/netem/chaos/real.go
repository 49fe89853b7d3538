package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"udt"
	"udt/internal/netem"
)

// RealConfig parameterizes a RunReal transfer: the full concurrent udt
// stack (DialOn/ListenOn, its goroutines, the wall clock) over a netem
// fabric, client "c" sending Payload bytes to server "s".
type RealConfig struct {
	// Seed drives the payload, the handshake randomness and the fabric.
	Seed int64
	// Payload is the client→server transfer size in bytes.
	Payload int
	// Link is applied to both directions.
	Link netem.LinkConfig
	// UDT overrides the endpoint configuration; Rand is always replaced
	// with a Seed-derived source so handshakes are reproducible.
	UDT udt.Config
	// Timeout bounds the whole transfer in wall time. Default 60 s.
	Timeout time.Duration
}

// RealResult is the outcome of a RunReal transfer.
type RealResult struct {
	// OK reports the server received exactly the bytes the client sent.
	OK bool
	// SentHash and RecvHash are FNV-64a digests of both stream ends.
	SentHash, RecvHash uint64
	// RecvBytes is how much the server read before EOF.
	RecvBytes int
	// Elapsed is the wall-clock duration of the transfer.
	Elapsed time.Duration
	// Client and Server are the final protocol counters of each endpoint.
	Client, Server udt.Stats
	// PathCS and PathSC are the fabric's impairment counters per direction.
	PathCS, PathSC netem.PathStats
}

// RunReal pushes cfg.Payload bytes through the production udt stack over
// an impaired netem fabric and verifies the stream arrives bit-exactly.
// Unlike the virtual-clock campaign driver it is concurrent and wall-clock
// timed: packet-level replay is not deterministic, but the impairment draw
// sequence per path still is.
func RunReal(cfg RealConfig) (RealResult, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed)) //nolint:gosec // reproducibility, not crypto
	payload := make([]byte, cfg.Payload)
	rng.Read(payload) //nolint:errcheck

	nw := netem.New(cfg.Seed, nil)
	epC, err := nw.Endpoint("c")
	if err != nil {
		return RealResult{}, err
	}
	epS, err := nw.Endpoint("s")
	if err != nil {
		return RealResult{}, err
	}
	nw.SetLink("c", "s", cfg.Link)

	ucfg := cfg.UDT
	ucfg.Rand = rand.New(rand.NewSource(cfg.Seed + 1)) //nolint:gosec
	ln, err := udt.ListenOn(epS, &ucfg)
	if err != nil {
		return RealResult{}, err
	}
	defer ln.Close() //nolint:errcheck

	res := RealResult{SentHash: hashOf(payload)}
	var mu sync.Mutex
	recvHash := newHash()
	recvDone := make(chan error, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			recvDone <- err
			return
		}
		buf := make([]byte, 65536)
		for {
			n, err := sc.Read(buf)
			if n > 0 {
				mu.Lock()
				recvHash.write(buf[:n])
				res.RecvBytes += n
				mu.Unlock()
			}
			if err != nil {
				mu.Lock()
				res.Server = sc.Stats()
				mu.Unlock()
				if err == io.EOF {
					err = nil
				}
				recvDone <- err
				return
			}
		}
	}()

	start := time.Now()
	conn, err := udt.DialOn(epC, epS.LocalAddr(), &ucfg)
	if err != nil {
		return res, err
	}
	if _, err := conn.Write(payload); err != nil {
		conn.Close() //nolint:errcheck
		return res, fmt.Errorf("chaos: write: %w", err)
	}
	drainDeadline := time.Now().Add(cfg.Timeout)
	for !conn.Drained() {
		if time.Now().After(drainDeadline) {
			conn.Close() //nolint:errcheck
			return res, fmt.Errorf("chaos: transfer not drained within %v", cfg.Timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Client = conn.Stats()
	conn.Close() //nolint:errcheck

	select {
	case err := <-recvDone:
		if err != nil {
			return res, fmt.Errorf("chaos: server: %w", err)
		}
	case <-time.After(cfg.Timeout):
		return res, fmt.Errorf("chaos: server read not finished within %v", cfg.Timeout)
	}
	mu.Lock()
	res.RecvHash = uint64(recvHash)
	res.OK = res.RecvBytes == len(payload) && res.RecvHash == res.SentHash
	res.Elapsed = time.Since(start)
	res.PathCS = nw.PathStats("c", "s")
	res.PathSC = nw.PathStats("s", "c")
	mu.Unlock()
	return res, nil
}
