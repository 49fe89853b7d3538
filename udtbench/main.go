// Command udtbench is the repository benchmark: it runs one workload over
// UDP loopback in a single process, checks every delivered byte, and prints
// each metric by name with its unit, ending with one JSON result line.
//
//	bash udtbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, each for half the window:
// untraced, then with the cost ledger and benchmark-side spans on, and
// reports the per-layer metrics of the traced half together with the
// tracing overhead against the untraced half. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"udt"
	"udt/internal/timing"
)

// metric is one named figure of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's parameters. Tests shrink the workload-size fields.
type options struct {
	seed      int64
	window    time.Duration // measured window
	warmup    time.Duration // discarded lead-in before the window
	trials    int           // set-ups per run, each followed by window/trials of measurement
	residents int           // rpc_churn: idle flows held open
	rate      float64       // rpc_churn: flow arrivals per second
	// serveFault, when set, is called as each rpc_churn flow's server half
	// ends cleanly; a non-nil error fails that half. Tests inject with it.
	serveFault func(flow int64) error
}

// outcome is what one run of a workload measured.
type outcome struct {
	e2e        map[string]metric
	layers     map[string]metric
	attempted  int64
	failed     int64
	mismatch   error   // content or length mismatch; the run is incorrect
	cpuPerUnit float64 // CPU seconds per chunk or flow, for the trace overhead
	gso, gro   bool    // Mux.Offload verdict
	tr         *tracer
}

// trial is one set-up followed by one measured window.
type trial struct {
	setups    []float64     // seconds from opening sockets until the window could open
	window    time.Duration // measured window
	cpu       time.Duration // process CPU in the window
	units     int64         // chunks or flows completed in the window
	bytes     int64         // useful bytes delivered in the window
	fct       []float64     // completion times in the window, ms
	heapMB    float64       // live heap after the window
	attempted int64
	failed    int64
	mismatch  error
	gso, gro  bool
	layers    *layerInput // traced trials only
}

// combine pools a run's trials into its outcome: totals over the windows
// for rates and costs, the pooled samples for the completion-time median,
// medians for set-up time and heap.
func combine(trials []*trial, tr *tracer) *outcome {
	oc := &outcome{tr: tr}
	var setups, heaps, fct []float64
	var win, cpu time.Duration
	var units, bytes int64
	for _, t := range trials {
		setups = append(setups, t.setups...)
		heaps = append(heaps, t.heapMB)
		fct = append(fct, t.fct...)
		win += t.window
		cpu += t.cpu
		units += t.units
		bytes += t.bytes
		oc.attempted += t.attempted
		oc.failed += t.failed
		if oc.mismatch == nil {
			oc.mismatch = t.mismatch
		}
		oc.gso, oc.gro = t.gso, t.gro
	}
	oc.cpuPerUnit = ratio(cpu.Seconds(), float64(units))
	oc.e2e = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"goodput_mbps":    {ratio(float64(bytes)*8/1e6, win.Seconds()), "Mb/s"},
		"cpu_s_per_gb":    {ratio(cpu.Seconds(), float64(bytes)/(1<<30)), "s/GiB"},
		"fct_p50_ms":      {median(fct), "ms"},
		"cpu_ms_per_flow": {oc.cpuPerUnit * 1000, "ms"},
		"heap_mb":         {median(heaps), "MB"},
		"success_ratio":   {1 - ratio(float64(oc.failed), float64(max(oc.attempted, 1))), "ratio"},
	}
	return oc
}

// workload is an endpoint configuration and a trial: one set-up followed
// by one measured window of the given length.
type workload struct {
	config func() *udt.Config
	trial  func(cfg *udt.Config, o options, idx int, window time.Duration, tr *tracer) (*trial, error)
}

var workloads = map[string]workload{
	"bulk":        {bulkConfig(false), bulkTrial},
	"bulk_sealed": {bulkConfig(true), bulkTrial},
	"rpc_churn":   {churnConfig, churnTrial},
}

// run runs o.trials trials of w, each measuring an equal share of the
// window. Traced, the cost ledger and spans are on, and the last trial's
// per-layer inputs become the outcome's per-layer metrics.
func run(w workload, o options, traced bool) (*outcome, error) {
	cfg := w.config()
	var tr *tracer
	if traced {
		cfg.Ledger = &timing.Ledger{Enabled: true}
		tr = newTracer()
	}
	var trials []*trial
	for i := 0; i < o.trials; i++ {
		t, err := w.trial(cfg, o, i, o.window/time.Duration(o.trials), tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "trial %d: set-up %.3f s, goodput %.1f Mb/s, %d done, fct p50 %.2f ms, CPU %.2f s\n",
			i, median(t.setups), float64(t.bytes)*8/1e6/t.window.Seconds(), t.units, median(slices.Clone(t.fct)), t.cpu.Seconds())
		trials = append(trials, t)
	}
	oc := combine(trials, tr)
	if traced {
		in := trials[len(trials)-1].layers
		in.sealNs, in.openNs, in.sealRejects = sealBench(1472)
		oc.layers = in.metrics()
	}
	return oc, nil
}

func defaultOptions(name string, seed int64, seconds int) options {
	o := options{seed: seed, window: time.Duration(seconds) * time.Second, trials: bulkTrials, warmup: time.Second}
	if name == "rpc_churn" {
		o.trials, o.warmup, o.residents, o.rate = 3, time.Second, residentFlows, churnRate
	}
	return o
}

func main() {
	name := flag.String("workload", "", "workload: bulk, bulk_sealed or rpc_churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/udtbench-results", "directory for span files")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "udtbench: need --workload bulk|bulk_sealed|rpc_churn, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, fp, err := execute(*name, w, defaultOptions(*name, *seed, *seconds), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udtbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res, fp); err != nil {
		fmt.Fprintln(os.Stderr, "udtbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs the workload once untraced, or, traced, twice for half the
// window each and returns the traced half's per-layer metrics.
func execute(name string, w workload, o options, traced bool, out string) (*result, map[string]any, error) {
	if !traced {
		oc, err := run(w, o, false)
		if err != nil {
			return nil, nil, err
		}
		return resultOf(oc, oc.e2e), fingerprint(oc), nil
	}
	o.window = max(o.window/2, time.Second)
	o.trials = 1
	base, err := run(w, o, false)
	if err != nil {
		return nil, nil, err
	}
	oc, err := run(w, o, true)
	if err != nil {
		return nil, nil, err
	}
	oc.layers["trace.cpu_overhead_ratio"] = metric{ratio(oc.cpuPerUnit, base.cpuPerUnit), "ratio"}
	oc.layers["trace.spans"] = metric{float64(len(oc.tr.snapshot())), "count"}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
	if err := oc.tr.writeJSONL(path); err != nil {
		return nil, nil, err
	}
	if oc.tr.dropped > 0 {
		fmt.Fprintf(os.Stderr, "udtbench: %d spans past the in-memory cap were not kept\n", oc.tr.dropped)
	}
	res := resultOf(oc, oc.layers)
	res.Attempted += base.attempted
	res.Failed += base.failed
	res.Correct = res.Correct && base.mismatch == nil
	if base.mismatch != nil {
		fmt.Fprintln(os.Stderr, "udtbench: untraced half:", base.mismatch)
	}
	return res, fingerprint(oc), nil
}

func resultOf(oc *outcome, ms map[string]metric) *result {
	if oc.mismatch != nil {
		fmt.Fprintln(os.Stderr, "udtbench:", oc.mismatch)
	}
	return &result{Correct: oc.mismatch == nil, Attempted: max(oc.attempted, 1), Failed: oc.failed, Metrics: ms}
}

// fingerprint identifies the machine and stack a result was measured on.
func fingerprint(oc *outcome) map[string]any {
	var u syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		kernel = b.String()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     kernel,
		"go":         runtime.Version(),
		"gso":        oc.gso,
		"gro":        oc.gro,
		"path":       "loopback",
	}
}

// report prints every metric as "metric <name> <value> <unit>", the
// fingerprint, and last the JSON result.
func report(w io.Writer, res *result, fp map[string]any) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "fail_ratio %g (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fpLine, err := json.Marshal(map[string]any{"fingerprint": fp})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(fpLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
