package campaign

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"testing"

	"udt/internal/netem/chaos"
)

// quickMatrixDigest folds every observable field of a QuickMatrix run into
// one FNV-64a value, cell by cell: pass, virtual elapsed time and timeout
// flag; both ends' full outcome (byte counts, stream hash, death time,
// every protocol counter) for each flow, source end first; and each link
// direction's fabric counters. Any behavioral drift in the engine, the
// fabric, or the driver loop changes it.
func quickMatrixDigest(seed int64) uint64 {
	h := fnv.New64a()
	for _, cr := range RunMatrix(seed, QuickMatrix()) {
		fmt.Fprintf(h, "%s|%v|%s|%s\n", cr.Case.Name, cr.Pass, realDigest(cr.Real), fsDigest(cr.FS))
		if rep := cr.Report; rep != nil {
			fmt.Fprintf(h, "elapsed=%d timedout=%v\n", rep.ElapsedUs, rep.TimedOut)
			for _, f := range rep.Flows {
				fmt.Fprintf(h, "src=%+v\ndst=%+v\n", f.SrcPeer, f.DstPeer)
			}
			for _, l := range rep.Links {
				linkDigest(h, l)
			}
		}
	}
	return h.Sum64()
}

// linkDigest folds one link direction's delivery and drop counters.
func linkDigest(w io.Writer, l LinkReport) {
	fmt.Fprintf(w, "link %s>%s offered=%d delivered=%d lost=%d dropq=%d dropinbox=%d\n",
		l.From, l.To, l.Offered, l.Delivered, l.Lost, l.DroppedQueue, l.DroppedInboxFull)
}

// realDigest and fsDigest fold only the seed-deterministic outcome of the
// wall-clock cells: payload digests and byte counts are pure functions of
// the seed when the cell passes, while Elapsed, Stats counters, and the
// exact resume count depend on real scheduling and are excluded.
func realDigest(r *chaos.RealResult) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("ok=%v sent=%016x recv=%016x n=%d", r.OK, r.SentHash, r.RecvHash, r.RecvBytes)
}

func fsDigest(r *chaos.FSResult) string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("ok=%v want=%016x got=%016x n=%d killed=%v resumed=%v",
		r.OK, r.WantHash, r.GotHash, r.Bytes, r.Killed, r.Resumes > 0)
}

// TestQuickMatrixReplayDigest pins the QuickMatrix replay to an exact
// digest. The campaign driver runs the internal/core engines
// single-threaded under the virtual clock, so this value is a bit-identical
// oracle: if a refactor of the engine, the fabric or the driver changes any
// scheduling decision, any counter, or any byte on the wire, this test
// fails — even if every transfer still completes.
//
// If you change protocol behavior ON PURPOSE (new control packet, different
// timer policy), re-derive the constant by running this test with -v and
// copying the printed digest; note the change and the cells it moves.
//
// History: re-derived when the Secure cell and counters were added, when
// the wall-clock rendezvous and udtfs cells were folded in by outcome only,
// and for the keep-alive fix (a keep-alive no longer postpones the
// receiving side's EXP timer: loss-episode 1.912 → 1.322 s virtual,
// retransmissions 42 → 44; mux-64flows 353.914 → 353.156 ms). The value
// held when the cells moved from their own two-peer and multiplexed drivers
// onto the campaign driver.
func TestQuickMatrixReplayDigest(t *testing.T) {
	const pinned uint64 = 0x59f98bac5f0b6f73
	got := quickMatrixDigest(1)
	t.Logf("QuickMatrix(seed=1) digest: %016x", got)
	if got != pinned {
		t.Fatalf("QuickMatrix replay digest drifted: got %016x, pinned %016x — engine behavior is no longer bit-identical", got, pinned)
	}
}

// TestQuickMatrixPasses keeps the CI matrix itself under test: every cell
// must meet its success criterion at the default seed.
func TestQuickMatrixPasses(t *testing.T) {
	for _, cr := range RunMatrix(1, QuickMatrix()) {
		if !cr.Pass {
			t.Errorf("%s failed: %s", cr.Case.Name, cr.Report)
		}
	}
}

// TestCCMatrixPasses runs the congestion-control matrix: every pluggable
// law must carry its transfer, and the fairness cells must complete with
// both laws making progress on the shared link.
func TestCCMatrixPasses(t *testing.T) {
	for _, cr := range RunMatrix(1, CCMatrix()) {
		if !cr.Pass {
			t.Errorf("%s failed: %s", cr.Case.Name, cr.Report)
			continue
		}
		for _, f := range cr.Report.Flows {
			if f.RecvBytes <= 0 || f.BackRecvBytes <= 0 {
				t.Errorf("%s: flow %d (%s) delivered nothing in one direction: %+v", cr.Case.Name, f.ID, f.CC, f)
			}
		}
	}
}

// TestCCMatrixDeterministic pins the replay requirement: a fairness cell
// racing two different laws over one seeded path must be a pure function
// of the seed, every per-flow counter included.
func TestCCMatrixDeterministic(t *testing.T) {
	var cell Case
	for _, cs := range CCMatrix() {
		if cs.Name == "cc-fair-native-ctcp" {
			cell = cs
		}
	}
	if cell.Name == "" {
		t.Fatal("cc-fair-native-ctcp cell missing from CCMatrix")
	}
	run := func() CaseResult { return RunMatrix(42, []Case{cell})[0] }
	one := run()
	two := run()
	if !reflect.DeepEqual(one.Report, two.Report) {
		t.Fatalf("same-seed CC race diverged:\n%+v\n%+v", one.Report, two.Report)
	}
	if !one.Pass {
		t.Fatalf("cc-fair-native-ctcp failed at seed 42: %s", one.Report)
	}
}
