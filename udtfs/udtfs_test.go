package udtfs

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"udt"
	"udt/fabric"
)

// harness wires a Server to a client Mux over an in-process fabric pipe,
// tracking served connections so tests can kill them mid-transfer.
type harness struct {
	t   *testing.T
	srv *Server
	m   *udt.Mux

	mu    sync.Mutex
	conns []*udt.Conn // server-side connections, in accept order
}

func newHarness(t *testing.T, scfg ServerConfig, ucfg *udt.Config) *harness {
	t.Helper()
	cEnd, sEnd := fabric.NewPipe(fabric.PipeConfig{Depth: 1 << 14})
	ln, err := udt.ListenOn(sEnd, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := udt.NewMux(cEnd, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, srv: NewServer(scfg), m: m}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			h.mu.Lock()
			h.conns = append(h.conns, c)
			h.mu.Unlock()
			go h.srv.ServeConn(c) //nolint:errcheck
		}
	}()
	t.Cleanup(func() {
		h.srv.Close() //nolint:errcheck
		m.Close()     //nolint:errcheck
		ln.Close()    //nolint:errcheck
	})
	return h
}

func (h *harness) dial() (*udt.Conn, error) {
	return h.m.Dial(fabric.Addr("pipe-b"))
}

// killLatest closes the most recently accepted server-side connection.
func (h *harness) killLatest() {
	h.mu.Lock()
	var c *udt.Conn
	if n := len(h.conns); n > 0 {
		c = h.conns[n-1]
	}
	h.mu.Unlock()
	if c != nil {
		c.Close() //nolint:errcheck
	}
}

// tempFile writes n pseudo-random bytes under t.TempDir and returns the
// path, the content, and its digest.
func tempFile(t *testing.T, n int) (string, []byte, [sha256.Size]byte) {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(data) //nolint:errcheck
	path := filepath.Join(t.TempDir(), "payload.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data, sha256.Sum256(data)
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{Op: OpFetch, Name: "some/file.bin", Offset: 1 << 40, Limit: 12345}
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *req {
		t.Fatalf("request round trip: got %+v want %+v", got, req)
	}
	resp := &Response{Status: StatusOK, Size: 1 << 50}
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	rgot, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if *rgot != *resp {
		t.Fatalf("response round trip: got %+v want %+v", rgot, resp)
	}
	// Corrupt magic must surface desync, not garbage fields.
	if _, err := ReadRequest(bytes.NewReader([]byte("XXXXxxxxxxxxxxxxxxxxxxxx"))); !errors.Is(err, ErrDesync) {
		t.Fatalf("bad magic: err = %v, want ErrDesync", err)
	}
}

func TestFetchWholeFile(t *testing.T) {
	h := newHarness(t, ServerConfig{}, nil)
	path, data, digest := tempFile(t, 2<<20)
	h.srv.Register("payload", path)

	var out bytes.Buffer
	f := &Fetcher{Dial: h.dial}
	res, err := f.Fetch("payload", &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(data)) || res.Size != int64(len(data)) {
		t.Fatalf("bytes=%d size=%d want %d", res.Bytes, res.Size, len(data))
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("payload corrupted in transit")
	}
	if res.SHA256 != digest {
		t.Fatal("digest mismatch")
	}
}

func TestFetchRange(t *testing.T) {
	h := newHarness(t, ServerConfig{}, nil)
	path, data, _ := tempFile(t, 1<<20)
	h.srv.Register("payload", path)
	f := &Fetcher{Dial: h.dial}

	var out bytes.Buffer
	res, err := f.FetchRange("payload", &out, 1000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", res.Size, len(data))
	}
	if !bytes.Equal(out.Bytes(), data[1000:1000+4096]) {
		t.Fatal("range bytes wrong")
	}
	// Tail range with limit 0 runs to EOF.
	out.Reset()
	res, err = f.FetchRange("payload", &out, int64(len(data))-500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 500 || !bytes.Equal(out.Bytes(), data[len(data)-500:]) {
		t.Fatal("tail range wrong")
	}
	// Offset beyond EOF is refused in-band.
	if _, err := f.FetchRange("payload", io.Discard, int64(len(data))+1, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v, want ErrBadRange", err)
	}
}

func TestFetchNotFound(t *testing.T) {
	h := newHarness(t, ServerConfig{}, nil)
	f := &Fetcher{Dial: h.dial}
	if _, err := f.Fetch("nope", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// blockWriter signals on the first write and then blocks until released,
// pinning its transfer active (flow control stops the sender once the
// receive buffer fills behind the blocked reader).
type blockWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
	n       int64
}

func (b *blockWriter) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.started) })
	<-b.release
	b.n += int64(len(p))
	return len(p), nil
}

// TestFetchBusy pins the per-peer cap: with MaxPerPeer=1 and one
// transfer pinned mid-flight, a second fetch from the same peer address
// is refused StatusBusy, and succeeds once the first drains.
func TestFetchBusy(t *testing.T) {
	// Small protocol buffers so the pinned transfer cannot be absorbed
	// into fly-by buffering and complete early.
	ucfg := &udt.Config{SndBuf: 64, RcvBuf: 64}
	h := newHarness(t, ServerConfig{MaxPerPeer: 1}, ucfg)
	path, data, _ := tempFile(t, 2<<20)
	h.srv.Register("payload", path)
	f := &Fetcher{Dial: h.dial}

	bw := &blockWriter{started: make(chan struct{}), release: make(chan struct{})}
	firstDone := make(chan error, 1)
	go func() {
		_, err := f.Fetch("payload", bw)
		firstDone <- err
	}()
	<-bw.started
	if _, err := f.Fetch("payload", io.Discard); !errors.Is(err, ErrBusy) {
		t.Fatalf("second fetch: err = %v, want ErrBusy", err)
	}
	close(bw.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("pinned fetch failed after release: %v", err)
	}
	if bw.n != int64(len(data)) {
		t.Fatalf("pinned fetch moved %d bytes, want %d", bw.n, len(data))
	}
	// Cap released: a fresh fetch succeeds.
	if _, err := f.Fetch("payload", io.Discard); err != nil {
		t.Fatalf("fetch after drain: %v", err)
	}
}

// killWriter kills the serving connection once threshold bytes arrived.
type killWriter struct {
	out       bytes.Buffer
	threshold int64
	kill      func()
	killed    bool
}

func (k *killWriter) Write(p []byte) (int, error) {
	k.out.Write(p)
	if !k.killed && int64(k.out.Len()) >= k.threshold {
		k.killed = true
		k.kill()
	}
	return len(p), nil
}

// TestFetchResume is the tentpole's acceptance path in miniature: the
// serving connection is killed mid-transfer, the Fetcher re-dials and
// re-requests from the verified offset, and the assembled file is
// byte-identical with the whole-file digest intact.
func TestFetchResume(t *testing.T) {
	// A 256-packet receive buffer bounds what the client can hold unread,
	// so when 1 MiB has reached the writer the server cannot have sent
	// the whole 4 MiB yet and the kill always lands mid-transfer. With the
	// default 8192-packet buffer the client could buffer the whole file
	// first and the fetch finished without ever being interrupted.
	h := newHarness(t, ServerConfig{}, &udt.Config{RcvBuf: 256})
	path, data, digest := tempFile(t, 4<<20)
	h.srv.Register("payload", path)

	kw := &killWriter{threshold: 1 << 20, kill: h.killLatest}
	f := &Fetcher{Dial: h.dial, Backoff: 20 * time.Millisecond}
	res, err := f.Fetch("payload", kw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumes == 0 {
		t.Fatal("transfer was never interrupted; the test exercised nothing")
	}
	if !bytes.Equal(kw.out.Bytes(), data) {
		t.Fatal("resumed assembly is not byte-identical")
	}
	if res.SHA256 != digest {
		t.Fatal("whole-file digest mismatch after resume")
	}
}

// TestResumeFetchFromPrefix resumes from bytes already on disk (the
// .part convention): the stored prefix is re-hashed, only the remainder
// crosses the wire, and the digest covers the whole file.
func TestResumeFetchFromPrefix(t *testing.T) {
	h := newHarness(t, ServerConfig{}, nil)
	path, data, digest := tempFile(t, 1<<20)
	h.srv.Register("payload", path)
	f := &Fetcher{Dial: h.dial}

	prefix := data[:300000]
	var rest bytes.Buffer
	res, err := f.ResumeFetch("payload", bytes.NewReader(prefix), &rest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != int64(len(data)-len(prefix)) {
		t.Fatalf("fetched %d bytes, want %d", res.Bytes, len(data)-len(prefix))
	}
	if res.SHA256 != digest {
		t.Fatal("digest does not cover prefix + remainder")
	}
	if !bytes.Equal(append(append([]byte{}, prefix...), rest.Bytes()...), data) {
		t.Fatal("assembled file differs")
	}
}

// TestIdleTimeout: a connection with no request activity is closed by
// the shared-wheel housekeeper, not left pinned forever.
func TestIdleTimeout(t *testing.T) {
	h := newHarness(t, ServerConfig{IdleTimeout: 150 * time.Millisecond}, nil)
	c, err := h.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	// The server should close us without any request ever sent.
	done := make(chan error, 1)
	go func() {
		_, err := ReadResponse(c)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned data on an idle connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle connection was never closed")
	}
}
