package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestVerifierAcceptsStream(t *testing.T) {
	st := newStream(7)
	data := make([]byte, 3*chunkSize+13)
	st.fill(data, 0)
	v := newVerifier(st)
	// Uneven pieces cross word and period boundaries.
	for p := data; len(p) > 0; {
		n := min(len(p), 1+len(p)%70001)
		if !v.check(p[:n]) {
			t.Fatalf("intact stream rejected at offset %d", v.off)
		}
		p = p[n:]
	}
	if err := v.finish(int64(len(data))); err != nil {
		t.Fatal(err)
	}
	// fill at an unaligned offset agrees with the whole-stream fill.
	part := make([]byte, 101)
	st.fill(part, 12345)
	if string(part) != string(data[12345:12345+101]) {
		t.Fatal("unaligned fill differs from the stream")
	}
}

func TestVerifierRejectsFlippedByte(t *testing.T) {
	st := newStream(7)
	data := make([]byte, 2*chunkSize)
	st.fill(data, 0)
	data[chunkSize+4321] ^= 0x01
	v := newVerifier(st)
	if v.check(data) {
		t.Fatal("flipped byte accepted")
	}
	if v.badAt != chunkSize+4321 {
		t.Fatalf("mismatch reported at %d, want %d", v.badAt, chunkSize+4321)
	}
	if v.finish(int64(len(data))) == nil {
		t.Fatal("finish accepted a corrupted stream")
	}
}

func TestVerifierRejectsTruncatedStream(t *testing.T) {
	st := newStream(7)
	data := make([]byte, chunkSize)
	st.fill(data, 0)
	v := newVerifier(st)
	if !v.check(data[:len(data)-1]) {
		t.Fatal("intact prefix rejected")
	}
	if v.finish(int64(len(data))) == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestVerifierRejectsOtherSeed(t *testing.T) {
	data := make([]byte, 4096)
	newStream(8).fill(data, 0)
	if newVerifier(newStream(7)).check(data) {
		t.Fatal("stream of another seed accepted")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is reported
// with its unit and that no operation failed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		o := defaultOptions(w.Name, 3, 2)
		o.warmup, o.trials = 300*time.Millisecond, 2
		if o.residents > 0 {
			o.residents = 64
		}
		if testing.Short() {
			o.window = time.Second
		}
		for traced, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.Name+map[int]string{0: "", 1: "/traced"}[traced], func(t *testing.T) {
				out := t.TempDir()
				res, fp, err := execute(w.Name, wl, o, traced == 1, out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if fp["path"] != "loopback" || fp["gomaxprocs"] == nil {
					t.Errorf("fingerprint incomplete: %v", fp)
				}
				if traced == 1 && strings.HasPrefix(w.Name, "bulk") && res.Metrics["losslist.loss_events"].Value == 0 {
					t.Error("bulk window saw no loss event; the loss list went unexercised")
				}
				if traced == 1 {
					spans, err := os.ReadFile(filepath.Join(out, "spans-"+w.Name+"-seed3.jsonl"))
					if err != nil || len(spans) == 0 {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
			})
		}
	}
}

// TestChurnCountsServerFailure fails the server half of some rpc_churn
// flows after their clients have verified the response, and checks that
// those flows count as failed, not as completed.
func TestChurnCountsServerFailure(t *testing.T) {
	o := defaultOptions("rpc_churn", 5, 1)
	o.warmup, o.residents = 200*time.Millisecond, 16
	o.serveFault = func(flow int64) error {
		if flow%4 == 0 {
			return errors.New("injected server failure")
		}
		return nil
	}
	res, err := churnTrial(churnConfig(), o, 0, o.window, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.failed >= res.attempted {
		t.Fatalf("failed %d of %d flows, want about a quarter", res.failed, res.attempted)
	}
	if res.units+res.failed != res.attempted {
		t.Fatalf("%d completed + %d failed != %d attempted", res.units, res.failed, res.attempted)
	}
}
