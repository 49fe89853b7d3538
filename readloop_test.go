package udt

import (
	"io"
	"runtime"
	"testing"
	"time"

	"udt/fabric"
)

// waitGoroutines waits for the goroutine count to fall back to base: the
// read loops and scheduler workers exit asynchronously after Close.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// pipePair dials across an in-process pipe: a dialed connection on end a,
// a listener on end b.
func pipePair(t *testing.T, cfg *Config) (cli, srv *Conn, ln *Listener, a, b *fabric.Pipe) {
	t.Helper()
	a, b = fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 12})
	ln, err := ListenOn(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err = DialOn(a, b.LocalAddr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case srv = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timeout")
	}
	return cli, srv, ln, a, b
}

// TestCloseEndsReadLoops checks that the read loops need no deadline to
// notice Close: closing a dialed connection, a listener and a Mux over
// in-process pipes returns the goroutine count to its baseline.
func TestCloseEndsReadLoops(t *testing.T) {
	base := runtime.NumGoroutine()
	cli, srv, ln, _, _ := pipePair(t, nil)
	go cli.Write(make([]byte, 64<<10)) //nolint:errcheck
	if _, err := io.ReadFull(srv, make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	cli.Close() //nolint:errcheck
	srv.Close() //nolint:errcheck
	ln.Close()  //nolint:errcheck
	waitGoroutines(t, base)

	a, b := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 12})
	ma, err := NewMux(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMux(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	mln, err := mb.Listen()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if c, err := mln.Accept(); err == nil {
			io.Copy(io.Discard, c) //nolint:errcheck
		}
	}()
	mc, err := ma.Dial(b.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Write(make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	ma.Close() //nolint:errcheck
	mb.Close() //nolint:errcheck
	waitGoroutines(t, base)
}

// TestCloseAfterPeerDeathReleasesTransport kills a dialed connection's peer
// and then closes the connection: Close must still close the private
// transport (ending its read loop), although the engine had already failed
// on its own.
func TestCloseAfterPeerDeathReleasesTransport(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := &Config{PeerDeathTimeout: 300 * time.Millisecond, MinEXPInterval: 20 * time.Millisecond}
	cli, srv, ln, a, b := pipePair(t, cfg)
	b.Close() //nolint:errcheck // the server side goes silent
	if _, err := cli.Read(make([]byte, 1)); err != ErrPeerDead {
		t.Fatalf("read on a silenced connection = %v, want ErrPeerDead", err)
	}
	cli.Close() //nolint:errcheck
	if _, err := a.WriteTo([]byte{0}, nil); err == nil {
		t.Fatal("Close of a dead dialed connection left its transport open")
	}
	srv.Close() //nolint:errcheck
	ln.Close()  //nolint:errcheck
	waitGoroutines(t, base)
}
