package main

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

func TestJudge(t *testing.T) {
	failing := bench.Model{Name: "f", ExpectFail: true, FailDepth: 5, MaxDepth: 8}
	passing := bench.Model{Name: "p", MaxDepth: 8}
	cases := []struct {
		m    bench.Model
		kind engine.Kind
		v    engine.Verdict
		k    int
		ok   bool
	}{
		{failing, engine.BMC, engine.Falsified, 5, true},
		{failing, engine.BMC, engine.Falsified, 4, false},
		{failing, engine.KInduction, engine.Falsified, 5, true},
		{failing, engine.BMC, engine.Holds, 8, false},
		{passing, engine.BMC, engine.Holds, 8, true},
		{passing, engine.BMC, engine.Holds, 7, false},
		{passing, engine.BMC, engine.Unknown, 8, false},
		{passing, engine.KInduction, engine.Proved, 2, true},
		{passing, engine.KInduction, engine.Unknown, 8, true},
		{passing, engine.KInduction, engine.Unknown, 6, false},
		{passing, engine.KInduction, engine.Falsified, 3, false},
	}
	for _, tc := range cases {
		err := judge(tc.m, tc.kind, &engine.Result{Verdict: tc.v, K: tc.k})
		if (err == nil) != tc.ok {
			t.Errorf("%s %s: %s at %d: got err %v, want ok=%v", tc.m.Name, tc.kind, tc.v, tc.k, err, tc.ok)
		}
	}
}

// TestWrongExpectationCounted runs real checks through the benchmark's
// loop with one row's ground truth deliberately wrong, and expects
// exactly that check to be counted as failed.
func TestWrongExpectationCounted(t *testing.T) {
	lie := "lock_s8"
	w := workload{
		name: "test",
		rows: func(m bench.Model) bool {
			return m.Name == "tlc_bug" || m.Name == "arb_5_bug" || m.Name == lie
		},
		kinds:         []engine.Kind{engine.BMC},
		deterministic: true,
	}
	r, err := newRunner(w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.checks {
		if r.checks[i].Model.Name == lie {
			r.checks[i].Model.FailDepth++ // the row really fails at depth 8
		}
	}
	rp := newReport()
	outs, _ := r.pass(context.Background(), []int{0, 1, 2}, "", nil)
	for _, o := range outs {
		rp.tally(o)
		if (o.err != nil) != (o.c.Model.Name == lie) {
			t.Errorf("%s: err %v", o.c, o.err)
		}
	}
	if rp.attempted != 3 || rp.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 3 attempted, 1 failed", rp.attempted, rp.failed)
	}
}

// TestIdentityCatchesChangedSearch feeds the search-identity check two
// runs of one check that disagree.
func TestIdentityCatchesChangedSearch(t *testing.T) {
	id := newIdentity()
	c := check{ID: 7}
	if err := id.observe(c, counters{Conflicts: 10, Decisions: 20, Propagations: 30}); err != nil {
		t.Fatal(err)
	}
	if err := id.observe(c, counters{Conflicts: 10, Decisions: 20, Propagations: 30}); err != nil {
		t.Fatalf("identical rerun rejected: %v", err)
	}
	err := id.observe(c, counters{Conflicts: 11, Decisions: 20, Propagations: 30})
	if err == nil || !strings.Contains(err.Error(), "search changed") {
		t.Fatalf("changed search not caught: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := medianLow(xs); got != 2 {
		t.Errorf("medianLow = %v, want 2", got)
	}
	if got := medianLow([]float64{5, 1, 3}); got != 3 {
		t.Errorf("medianLow of three = %v, want 3", got)
	}
	if got := harrellDavis([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("harrellDavis of 1..5 = %v, want 3", got)
	}
	if got := harrellDavis([]float64{7, 7, 7}, 0.5); math.Abs(got-7) > 1e-9 {
		t.Errorf("harrellDavis of a constant = %v, want 7", got)
	}
	if got := harrellDavis([]float64{1, 2, 4, 8, 16, 32, 64}, 0.5); got <= 4 || got >= 16 {
		t.Errorf("harrellDavis = %v, want near the middle value 8", got)
	}
	if xs[0] != 4 {
		t.Errorf("input sorted in place")
	}
}
