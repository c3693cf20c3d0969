package bmc_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

func mustParseSet(t *testing.T, s string) portfolio.StrategySet {
	t.Helper()
	set, err := portfolio.ParseSet(s)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestIncrementalAgreesWithScratchSuite: on every internal/bench family
// the live incremental solver must return the verdict and depth of the
// scratch solver under the static ordering, whose guidance reaches the
// two through different code (solver options vs SetGuidance on a live
// solver). The dynamic ordering's full-depth sweep is
// engine.TestSessionEquivalenceSuite; this one is depth-capped, the
// adder rows hardest (scratch static takes seconds past depth 1 there).
func TestIncrementalAgreesWithScratchSuite(t *testing.T) {
	for _, m := range bench.Suite() {
		depth := min(m.MaxDepth, 3)
		if strings.HasPrefix(m.Name, "add_") {
			depth = 1
		}
		if m.ExpectFail && m.FailDepth <= 8 {
			depth = m.FailDepth
		}
		opts := []engine.Option{engine.WithBudgets(depth, 0), engine.WithOrdering(core.OrderStatic)}
		sres := run(t, m.Build(), opts...)
		ires := run(t, m.Build(), append(opts, engine.WithIncremental())...)
		if sres.Verdict != ires.Verdict || sres.K != ires.K {
			t.Errorf("%s: incremental (%v, depth %d) disagrees with scratch (%v, depth %d)",
				m.Name, ires.Verdict, ires.K, sres.Verdict, sres.K)
		}
		if m.ExpectFail && depth == m.FailDepth && (ires.Verdict != engine.Falsified || ires.K != m.FailDepth) {
			t.Errorf("%s: %v at depth %d, ground truth falsified at %d", m.Name, ires.Verdict, ires.K, m.FailDepth)
		}
	}
}

// TestIncrementalAllStrategies checks verdict agreement for every ordering
// strategy on one model from each verdict class.
func TestIncrementalAllStrategies(t *testing.T) {
	models := []struct {
		name    string
		depth   int
		verdict engine.Verdict
		vDepth  int
	}{
		{"cnt_w4_t9", 12, engine.Falsified, 9},
		{"twin_w8", 6, engine.Holds, 6},
	}
	for _, tc := range models {
		m, ok := bench.ByName(tc.name)
		if !ok {
			t.Fatalf("model %s missing", tc.name)
		}
		for _, st := range allStrategies() {
			res := run(t, m.Build(), engine.WithBudgets(tc.depth, 0), engine.WithOrdering(st), engine.WithIncremental())
			if res.Verdict != tc.verdict || res.K != tc.vDepth {
				t.Errorf("%s/%v: verdict=%v depth=%d, want %v at %d",
					tc.name, st, res.Verdict, res.K, tc.verdict, tc.vDepth)
			}
		}
	}
}

// TestIncrementalExtractsCores: the incremental CDG must yield a nonempty
// core at every UNSAT depth under the core-consuming strategies.
func TestIncrementalExtractsCores(t *testing.T) {
	m, ok := bench.ByName("twin_w8")
	if !ok {
		t.Fatal("model twin_w8 missing")
	}
	res := run(t, m.Build(), engine.WithBudgets(5, 0), engine.WithOrdering(core.OrderStatic), engine.WithIncremental())
	if res.Verdict != engine.Holds {
		t.Fatalf("verdict=%v", res.Verdict)
	}
	for _, d := range res.PerDepth {
		if d.Status != sat.Unsat {
			t.Fatalf("depth %d: status %v", d.K, d.Status)
		}
		if d.CoreClauses == 0 || d.CoreVars == 0 {
			t.Errorf("depth %d: empty incremental core (%d clauses, %d vars)",
				d.K, d.CoreClauses, d.CoreVars)
		}
	}
}

// TestIncrementalPerDepthStatsAreDeltas: DepthStats must record per-call
// deltas whose sum is the run total, not cumulative lifetime counters.
func TestIncrementalPerDepthStatsAreDeltas(t *testing.T) {
	m, ok := bench.ByName("mix_w5")
	if !ok {
		t.Fatal("model mix_w5 missing")
	}
	res := run(t, m.Build(), engine.WithBudgets(4, 0), engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental())
	var conf, dec int64
	for _, d := range res.PerDepth {
		conf += d.Stats.Conflicts
		dec += d.Stats.Decisions
	}
	if res.Total.Conflicts != conf || res.Total.Decisions != dec {
		t.Errorf("totals (%d conf, %d dec) != per-depth sums (%d, %d)",
			res.Total.Conflicts, res.Total.Decisions, conf, dec)
	}
}

func TestIncrementalBudgetExhausted(t *testing.T) {
	m, ok := bench.ByName("mix_w8")
	if !ok {
		t.Fatal("model mix_w8 missing")
	}
	res := run(t, m.Build(), engine.WithBudgets(8, 1), engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental())
	if res.Verdict != engine.Unknown {
		t.Errorf("verdict=%v, want unknown (budget exhausted)", res.Verdict)
	}
}

func TestIncrementalDeadlineInPast(t *testing.T) {
	m, ok := bench.ByName("twin_w8")
	if !ok {
		t.Fatal("model twin_w8 missing")
	}
	res := runCtx(t, expired(t), m.Build(), engine.WithBudgets(10, 0), engine.WithOrdering(core.OrderVSIDS), engine.WithIncremental())
	if res.Verdict != engine.Unknown || res.K != 0 {
		t.Errorf("verdict=%v depth=%d, want unknown at 0", res.Verdict, res.K)
	}
}

// TestPortfolioClearsCallerRecorder is the regression test for the shared-
// recorder data race: a caller-supplied Recorder in the base solver
// options, on a vsids/timeaxis-only strategy set, used to be shared
// verbatim by all racing goroutines (a data race on core.Recorder's
// slices, visible under -race and as out-of-order clause-ID panics). The
// session must clear it for every racer.
func TestPortfolioClearsCallerRecorder(t *testing.T) {
	m, ok := bench.ByName("cnt_w4_t9")
	if !ok {
		t.Fatal("model cnt_w4_t9 missing")
	}
	so := sat.Defaults()
	so.Recorder = core.NewRecorder(0)
	res := run(t, m.Build(), engine.WithBudgets(9, 0), engine.WithSolver(so),
		engine.WithPortfolio(mustParseSet(t, "vsids,timeaxis"), 2))
	if res.Verdict != engine.Falsified || res.K != 9 {
		t.Errorf("verdict=%v depth=%d, want falsified at 9", res.Verdict, res.K)
	}
}
