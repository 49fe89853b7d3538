// Command udtchaos runs the UDT fault-injection matrix: full transfers of
// checksummed payloads through netem-impaired paths, driven by the real
// protocol engines under a deterministic virtual clock (and optionally the
// full concurrent stack under the wall clock).
//
// Usage:
//
//	udtchaos [-seed N] [-determinism] [-ccmatrix] [-campaign] [-real] [-v]
//	         [-kv] [-metrics FILE] [-report DIR]
//
// Every virtual-clock cell is a campaign Spec run by campaign.Run, the one
// virtual-time driver, and prints its Report's summary line. Exit status is
// non-zero if any matrix cell fails. With -determinism each cell runs twice
// and the two report digests must match — the replay guarantee the virtual
// clock provides. With -ccmatrix the congestion-control matrix runs instead
// of the impairment matrix: every pluggable law carries a transfer through
// loss, and fairness cells race two laws over one shared rate-capped link. With -campaign the CI campaign set runs instead: the
// 100-flow mixed-law dumbbell and the 32-flow flash-crowd star over multi-hop
// netem topologies (-kv prints flat benchdiff metric lines, -metrics writes
// them as JSON, -report writes per-campaign JSONL reports). With -real a
// smoke subset also runs over the production Dial/Listen stack — one
// transfer per congestion controller.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"udt"
	"udt/internal/campaign"
	"udt/internal/netem"
	"udt/internal/netem/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "PRNG seed for payloads, handshakes and impairments")
	determinism := flag.Bool("determinism", false, "run every cell twice and require bit-identical results")
	ccmatrix := flag.Bool("ccmatrix", false, "run the congestion-control matrix instead of the impairment matrix")
	camp := flag.Bool("campaign", false, "run the CI campaign set (multi-flow topologies) instead of the impairment matrix")
	real := flag.Bool("real", false, "also run a smoke subset over the concurrent udt stack")
	kv := flag.Bool("kv", false, "with -campaign: print flat 'key value' metric lines for the bench history")
	metricsFile := flag.String("metrics", "", "with -campaign: write flat metrics JSON to this file")
	reportDir := flag.String("report", "", "with -campaign: write per-campaign JSONL reports into this directory")
	verbose := flag.Bool("v", false, "print per-cell protocol counters")
	flag.Parse()

	if *camp {
		os.Exit(runCampaigns(*determinism, *kv, *metricsFile, *reportDir, *verbose))
	}

	failed := 0
	cases := campaign.QuickMatrix()
	if *ccmatrix {
		cases = campaign.CCMatrix()
	}
	results := campaign.RunMatrix(*seed, cases)
	var second []campaign.CaseResult
	if *determinism {
		second = campaign.RunMatrix(*seed, cases)
	}
	for i, cr := range results {
		status := "ok"
		if !cr.Pass {
			status = "FAIL"
			failed++
		}
		det := ""
		if *determinism {
			if cellFingerprint(cr) == cellFingerprint(second[i]) {
				det = " replay=identical"
			} else {
				det = " replay=DIVERGED"
				failed++
			}
		}
		switch {
		case cr.Real != nil:
			r := cr.Real
			fmt.Printf("%-22s %-4s wall=%8.3fs recv=%d retrans=%d%s\n",
				cr.Case.Name, status, r.Elapsed.Seconds(), r.RecvBytes, r.Client.PktsRetrans, det)
			if *verbose {
				fmt.Printf("    client: %+v\n    server: %+v\n", r.Client, r.Server)
			}
		case cr.FS != nil:
			f := cr.FS
			fmt.Printf("%-22s %-4s wall=%8.3fs bytes=%d killed=%v resumes=%d%s\n",
				cr.Case.Name, status, f.Elapsed.Seconds(), f.Bytes, f.Killed, f.Resumes, det)
			if *verbose {
				fmt.Printf("    c->s: %+v\n    s->c: %+v\n", f.PathCS, f.PathSC)
			}
		default:
			fmt.Printf("%-22s %-4s %s%s\n", cr.Case.Name, status, cr.Report, det)
			printDetail(cr.Report, *verbose)
		}
	}

	if *real {
		smokes := []struct {
			name string
			link netem.LinkConfig
			cc   string
		}{
			{"real-clean", netem.LinkConfig{Delay: 1000}, ""},
			{"real-loss-1pct", netem.LinkConfig{Delay: 2000, Jitter: 2000, Loss: 0.01, Dup: 0.001}, ""},
		}
		// One impaired transfer per congestion controller over the full
		// concurrent stack — the paper's §5.2 laws moving real bytes.
		for _, name := range udt.CongestionControls() {
			smokes = append(smokes, struct {
				name string
				link netem.LinkConfig
				cc   string
			}{"real-cc-" + name, netem.LinkConfig{Delay: 2000, Jitter: 1000, Loss: 0.005}, name})
		}
		for _, rc := range smokes {
			ucfg := udt.Config{}
			if rc.cc != "" {
				cc, err := udt.CongestionControl(rc.cc)
				if err != nil {
					fmt.Printf("%-22s FAIL error=%v\n", rc.name, err)
					failed++
					continue
				}
				ucfg.CC = cc
			}
			res, err := chaos.RunReal(chaos.RealConfig{Seed: *seed, Payload: 1 << 20, Link: rc.link, UDT: ucfg})
			switch {
			case err != nil:
				fmt.Printf("%-22s FAIL error=%v\n", rc.name, err)
				failed++
			case !res.OK:
				fmt.Printf("%-22s FAIL recv=%d hash mismatch\n", rc.name, res.RecvBytes)
				failed++
			default:
				fmt.Printf("%-22s ok   wall=%8.3fs retrans=%d cc=%s\n",
					rc.name, res.Elapsed.Seconds(), res.Client.PktsRetrans, res.Client.CCName)
			}
		}
	}

	if failed > 0 {
		fmt.Printf("udtchaos: %d failure(s)\n", failed)
		os.Exit(1)
	}
}

// runCampaigns executes the CI campaign set and returns the process exit
// code. With determinism each campaign runs twice and the two reports must
// hash identically — the replay guarantee, now over whole topologies.
func runCampaigns(determinism, kv bool, metricsFile, reportDir string, verbose bool) int {
	failed := 0
	metrics := make(map[string]float64)
	for _, spec := range campaign.CISet() {
		rep, _, err := campaign.Run(spec)
		if err != nil {
			fmt.Printf("%-12s FAIL error=%v\n", spec.Name, err)
			failed++
			continue
		}
		det := ""
		if determinism {
			rep2, _, err := campaign.Run(spec)
			switch {
			case err != nil:
				det = " replay=ERROR"
				failed++
			case rep.Digest() != rep2.Digest():
				det = " replay=DIVERGED"
				failed++
			default:
				det = " replay=identical"
			}
		}
		if !rep.OK {
			failed++
		}
		fmt.Printf("%-12s %s%s\n", spec.Name, rep, det)
		printDetail(rep, verbose)
		for k, v := range rep.Metrics() {
			metrics[k] = v
		}
		if reportDir != "" {
			if err := writeReport(reportDir, spec.Name, rep); err != nil {
				fmt.Printf("%-12s FAIL report: %v\n", spec.Name, err)
				failed++
			}
		}
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if kv {
		for _, k := range keys {
			fmt.Printf("%s %g\n", k, metrics[k])
		}
	}
	if metricsFile != "" {
		b, err := json.MarshalIndent(metrics, "", "  ")
		if err == nil {
			err = os.WriteFile(metricsFile, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Printf("udtchaos: write metrics: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Printf("udtchaos: %d failure(s)\n", failed)
		return 1
	}
	return 0
}

// writeReport writes one campaign's JSONL report to dir/<name>.jsonl.
func writeReport(dir, name string, rep *campaign.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	if err := rep.WriteJSONL(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}

// maxFlowLines caps the per-flow lines printDetail writes: matrix cells
// have a few flows, campaigns a hundred.
const maxFlowLines = 8

// printDetail prints a virtual-clock report's per-flow goodput when its
// flows mix laws (each direction's share of the run: received bytes over
// elapsed time), and with verbose every impaired link direction and every
// flow's counters.
func printDetail(rep *campaign.Report, verbose bool) {
	if len(rep.Summary.CCGoodput) > 1 && len(rep.Flows) <= maxFlowLines {
		for _, f := range rep.Flows {
			fmt.Printf("    flow %d %-9s goodput fwd=%.2f Mb/s back=%.2f Mb/s\n", f.ID, f.CC,
				float64(f.RecvBytes)*8/float64(rep.ElapsedUs), float64(f.BackRecvBytes)*8/float64(rep.ElapsedUs))
		}
	}
	if !verbose {
		return
	}
	for _, l := range rep.Links {
		if l.DroppedQueue > 0 || l.Lost > 0 {
			fmt.Printf("    link %s→%s offered=%d delivered=%d lost=%d dropq=%d maxq=%d\n",
				l.From, l.To, l.Offered, l.Delivered, l.Lost, l.DroppedQueue, l.MaxQueuePkts)
		}
	}
	if len(rep.Flows) <= maxFlowLines {
		for _, f := range rep.Flows {
			fmt.Printf("    flow %d src: %+v\n    flow %d dst: %+v\n", f.ID, f.SrcPeer.Stats, f.ID, f.DstPeer.Stats)
		}
	}
}

// cellFingerprint is what a replay of a cell must reproduce: a
// virtual-clock cell's report digest, or the seed-deterministic outcome of
// a wall-clock cell (wall time, protocol counters and the exact resume
// count legitimately vary between runs).
func cellFingerprint(cr campaign.CaseResult) string {
	switch {
	case cr.Real != nil:
		r := cr.Real
		return fmt.Sprintf("%v %x %x %d", r.OK, r.SentHash, r.RecvHash, r.RecvBytes)
	case cr.FS != nil:
		f := cr.FS
		return fmt.Sprintf("%v %x %x %d %v %v", f.OK, f.WantHash, f.GotHash, f.Bytes, f.Killed, f.Resumes > 0)
	default:
		return fmt.Sprintf("%016x", cr.Report.Digest())
	}
}
