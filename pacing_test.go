//go:build unix

package udt

import (
	"io"
	"runtime/debug"
	"syscall"
	"testing"
	"time"

	"udt/internal/congestion"
	"udt/internal/packet"
)

// fixedPeriodCC is a congestion law that paces at a constant period with
// an unbounded window and ignores all feedback, so a transfer's packet
// rate is set by the pacer alone.
type fixedPeriodCC struct {
	congestion.Base
	period float64
}

func (f *fixedPeriodCC) Init(congestion.Params)         {}
func (f *fixedPeriodCC) OnACK(int, int32, int32, int32) {}
func (f *fixedPeriodCC) OnNAK(int64, int32, int32)      {}
func (f *fixedPeriodCC) OnTimeout(int64, int32)         {}
func (f *fixedPeriodCC) OnRateTick()                    {}
func (f *fixedPeriodCC) Period() float64                { return f.period }
func (f *fixedPeriodCC) Window() float64                { return 1 << 20 }
func (f *fixedPeriodCC) Name() string                   { return "fixed-period" }

// cpuTime is the process's user+system CPU time.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// raceBuild reports whether the test binary runs under the race detector.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestParkedPacingHoldsRate drives one dialed flow, alone on its private
// one-shard pool, at a fixed 100 µs period over loopback. The shard parks
// on its timer for every pacing gap; runtime timers wake about a
// millisecond late, and the sender catches up by sending the overdue
// packets as one train. The delivered rate must still match the period,
// and the pacer must not burn a core doing it. The race detector makes
// each packet cost about four times the CPU, which leaves no margin
// between the transfer's own work and a spinning pacer, so under it only
// the rate is asserted.
func TestParkedPacingHoldsRate(t *testing.T) {
	const periodUS = 100
	cfg := &Config{CC: func() congestion.Controller { return &fixedPeriodCC{period: periodUS} }}
	cli, srv, _ := pair(t, cfg)
	payload := cli.cfg.MSS - packet.DataHeaderSize

	go func() {
		buf := make([]byte, 1<<20)
		for {
			if _, err := cli.Write(buf); err != nil {
				return
			}
		}
	}()
	var got int64
	read := func(d time.Duration) {
		buf := make([]byte, 1<<16)
		for end := time.Now().Add(d); time.Now().Before(end); {
			n, err := srv.Read(buf)
			if err == io.EOF {
				t.Fatal("sender closed early")
			}
			if err != nil {
				t.Fatal(err)
			}
			got += int64(n)
		}
	}
	read(300 * time.Millisecond) // warm up: handshake, first ACKs
	got = 0
	start, cpu0 := time.Now(), cpuTime(t)
	read(time.Second)
	wall, cpu := time.Since(start), cpuTime(t)-cpu0

	rate := float64(got) / float64(payload) / wall.Seconds()
	// Every 16th packet starts a back-to-back packet pair (§3.4), so 16
	// packets take 15 periods.
	want := 1e6 / periodUS * 16 / 15
	t.Logf("delivered %.0f pkts/s (want %.0f), CPU %.2f core-s per s", rate, want, cpu.Seconds()/wall.Seconds())
	if rate < 0.85*want || rate > 1.15*want {
		t.Errorf("delivered %.0f pkts/s, want %.0f ±15%%", rate, want)
	}
	if share := cpu.Seconds() / wall.Seconds(); share > 0.6 && !raceBuild() {
		t.Errorf("process used %.2f core-s per wall s pacing %d µs packets, want < 0.6", share, periodUS)
	}
}
