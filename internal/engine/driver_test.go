package engine_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/racer"
	"repro/internal/sat"
)

// undecided rewrites a joined race the way a faulty executor might
// report it: attempt 0 named the winner, with no verdict.
func undecided(r portfolio.RaceResult) portfolio.RaceResult {
	r.Winner = 0
	r.Result = sat.Result{Status: sat.Unknown}
	return r
}

// undecidedExecutor runs every race for real and reports each one
// undecided with a winner.
type undecidedExecutor struct{ engine.LocalExecutor }

func (e undecidedExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	return undecided(e.LocalExecutor.Race(q, f, attempts, jobs, stop))
}

func (e undecidedExecutor) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	return undecided(e.LocalExecutor.RaceLive(q, attempts, assumps, jobs, stop))
}

// racingShapes are the four shapes whose depths are decided by races.
func racingShapes() map[string][]engine.Option {
	kind := engine.WithEngine(engine.KInduction)
	return map[string][]engine.Option{
		"bmc-portfolio":  {engine.WithPortfolio(nil, 0)},
		"bmc-warm":       {engine.WithPortfolio(nil, 0), engine.WithIncremental()},
		"kind-portfolio": {kind, engine.WithPortfolio(nil, 0)},
		"kind-warm":      {kind, engine.WithPortfolio(nil, 0), engine.WithIncremental()},
	}
}

// TestUndecidedWinnerIsUnknown: a race that names a winner but carries no
// verdict leaves its depth undecided, so every racing shape must stop
// there with Unknown at that depth — the scratch solver's semantics for
// an undecided depth — not claim Holds for the depths before it.
func TestUndecidedWinnerIsUnknown(t *testing.T) {
	twin := bench.Model{Name: "twin", Build: func() *circuit.Circuit { return bench.Twin(6, 0, 0) }}
	for name, opts := range racingShapes() {
		res := checkModel(t, twin, append(opts, engine.WithBudgets(4, 0), engine.WithExecutor(undecidedExecutor{}))...)
		if res.Verdict != engine.Unknown || res.K != 0 {
			t.Errorf("%s: %v@%d from an undecided winner, want unknown@0", name, res.Verdict, res.K)
		}
	}
}

// stepFirstExecutor holds every base race until the same depth's step
// race has finished, then reports the base undecided with a winner.
type stepFirstExecutor struct {
	engine.LocalExecutor
	stepDone chan struct{}
}

func (e *stepFirstExecutor) settle(q engine.Query, r portfolio.RaceResult) portfolio.RaceResult {
	if q == engine.QueryStep {
		select {
		case e.stepDone <- struct{}{}:
		default:
		}
		return r
	}
	select {
	case <-e.stepDone:
	case <-time.After(10 * time.Second):
	}
	return undecided(r)
}

func (e *stepFirstExecutor) Race(q engine.Query, f *cnf.Formula, attempts []portfolio.Attempt, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	return e.settle(q, e.LocalExecutor.Race(q, f, attempts, jobs, stop))
}

func (e *stepFirstExecutor) RaceLive(q engine.Query, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
	return e.settle(q, e.LocalExecutor.RaceLive(q, attempts, assumps, jobs, stop))
}

// TestUndecidedBaseIsNotProved: an undecided base case proves nothing,
// even when the step race of the same depth has already come back UNSAT
// (twin is 0-inductive, so its step closes at once).
func TestUndecidedBaseIsNotProved(t *testing.T) {
	twin := bench.Model{Name: "twin", Build: func() *circuit.Circuit { return bench.Twin(6, 0, 0) }}
	for _, name := range []string{"kind-portfolio", "kind-warm"} {
		exec := &stepFirstExecutor{stepDone: make(chan struct{}, 1)}
		res := checkModel(t, twin, append(racingShapes()[name], engine.WithBudgets(4, 0), engine.WithExecutor(exec))...)
		if res.Verdict != engine.Unknown || res.K != 0 {
			t.Errorf("%s: %v@%d after an undecided base, want unknown@0", name, res.Verdict, res.K)
		}
	}
}

// TestKindHonorsOrderingKnobs: the switch divisor and the score mode reach
// the k-induction score boards like they reach BMC's. On tlc the default
// configuration and each changed knob search differently.
func TestKindHonorsOrderingKnobs(t *testing.T) {
	m, ok := bench.ByName("tlc")
	if !ok {
		t.Fatal("model tlc missing")
	}
	decisions := func(opts ...engine.Option) int64 {
		res := checkModel(t, m, append([]engine.Option{engine.WithEngine(engine.KInduction), engine.WithBudgets(8, 0)}, opts...)...)
		return res.BaseStats.Decisions + res.StepStats.Decisions
	}
	def := decisions()
	if got := decisions(engine.WithSwitchDivisor(4096)); got == def {
		t.Errorf("switch divisor 4096: %d decisions, the same as the default divisor's", got)
	}
	if got := decisions(engine.WithScoreMode(core.LastCoreOnly)); got == def {
		t.Errorf("last-core-only scores: %d decisions, the same as weighted-sum's", got)
	}
}

// TestEventOrderPerShape pins the progress stream of every engine shape:
// per depth, BMC emits DepthStarted, RaceFinished (racing shapes), then
// DepthFinished; the sequential prover runs base then step; the racing
// k-induction shapes start both queries, then report both races, then
// finish both. (ExchangeFlushed rows depend on what the bus moved and are
// left out.)
func TestEventOrderPerShape(t *testing.T) {
	kind := engine.WithEngine(engine.KInduction)
	exchange := engine.WithExchange(racer.ExchangeOptions{Enabled: true})
	shapes := []struct {
		name  string
		model string
		opts  []engine.Option
		depth string // one depth's events, %d marks k
	}{
		{"bmc-scratch", "cnt_w4_t9", nil, "S bmc%d F bmc%d"},
		{"bmc-incremental", "cnt_w4_t9", []engine.Option{engine.WithIncremental()}, "S bmc%d F bmc%d"},
		{"bmc-portfolio", "cnt_w4_t9", []engine.Option{engine.WithPortfolio(nil, 0)}, "S bmc%d R bmc%d F bmc%d"},
		{"bmc-warm", "cnt_w4_t9", []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental(), exchange}, "S bmc%d R bmc%d F bmc%d"},
		{"kind-portfolio", "tlc_bug", []engine.Option{kind, engine.WithPortfolio(nil, 0)},
			"S base%d S step%d R base%d R step%d F base%d F step%d"},
		{"kind-warm", "tlc_bug", []engine.Option{kind, engine.WithPortfolio(nil, 0), engine.WithIncremental(), exchange},
			"S base%d S step%d R base%d R step%d F base%d F step%d"},
	}
	letter := map[engine.EventKind]string{engine.DepthStarted: "S", engine.RaceFinished: "R", engine.DepthFinished: "F"}
	stream := func(m bench.Model, opts []engine.Option) (string, *engine.Result) {
		var evs []string
		res := checkModel(t, m, append(opts, engine.WithBudgets(12, 0), engine.WithProgress(func(e engine.Event) {
			if l, ok := letter[e.Kind]; ok {
				evs = append(evs, fmt.Sprintf("%s %s%d", l, e.Query, e.K))
			}
		}))...)
		return strings.Join(evs, " "), res
	}
	for _, sh := range shapes {
		m, ok := bench.ByName(sh.model)
		if !ok {
			t.Fatalf("model %s missing", sh.model)
		}
		got, res := stream(m, sh.opts)
		var want []string
		for k := range res.K + 1 {
			args := make([]any, strings.Count(sh.depth, "%d"))
			for i := range args {
				args[i] = k
			}
			want = append(want, fmt.Sprintf(sh.depth, args...))
		}
		if got != strings.Join(want, " ") {
			t.Errorf("%s: events\n  %s\nwant\n  %s", sh.name, got, strings.Join(want, " "))
		}
	}

	// The sequential prover solves the step only after an UNSAT base.
	m, _ := bench.ByName("tlc_bug")
	got, _ := stream(m, []engine.Option{kind})
	if want := "S base0 F base0 S step0 F step0 S base1 F base1"; got != want {
		t.Errorf("kind-sequential: events\n  %s\nwant\n  %s", got, want)
	}
}
