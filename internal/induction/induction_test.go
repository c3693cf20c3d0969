// Package induction_test is the k-induction behaviour suite: proofs,
// counter-examples, depth bounds and the step encoding, checked through
// engine.New with WithEngine(engine.KInduction) across the sequential,
// cold-portfolio and warm-pool shapes. The directory holds tests only;
// the engine lives in internal/engine.
package induction_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// proveCtx runs k-induction on property propIdx of c to depth maxK under
// ctx and fails the test on a structural error.
func proveCtx(t *testing.T, ctx context.Context, c *circuit.Circuit, propIdx, maxK int, opts ...engine.Option) *engine.Result {
	t.Helper()
	opts = append([]engine.Option{engine.WithEngine(engine.KInduction), engine.WithBudgets(maxK, 0)}, opts...)
	sess, err := engine.New(c, propIdx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Check(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// prove runs the sequential prover under one ordering.
func prove(t *testing.T, c *circuit.Circuit, st core.Strategy, maxK int) *engine.Result {
	t.Helper()
	return proveCtx(t, context.Background(), c, 0, maxK, engine.WithOrdering(st))
}

// Engine shapes beyond the sequential prover.
var (
	cold = []engine.Option{engine.WithPortfolio(nil, 0)}
	warm = []engine.Option{engine.WithPortfolio(nil, 0), engine.WithIncremental()}
)

// provePortfolio runs the cold portfolio prover.
func provePortfolio(t *testing.T, c *circuit.Circuit, maxK int) *engine.Result {
	t.Helper()
	return proveCtx(t, context.Background(), c, 0, maxK, cold...)
}

func TestTwinIsInductiveImmediately(t *testing.T) {
	// Twin registers: x == y is preserved by every step, so the property
	// closes at k = 0.
	res := prove(t, bench.Twin(8, 0, 0), core.OrderVSIDS, 4)
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v, want proved", res.Verdict)
	}
	if res.K != 0 {
		t.Fatalf("proved at k=%d, want 0", res.K)
	}
}

func TestGatedCounterProved(t *testing.T) {
	// "Counter never reaches m" is inductive: m is only reachable from
	// m-1, where the wrap fires instead.
	res := prove(t, bench.GatedCounter(4, 10, 0, 0), core.OrderVSIDS, 6)
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v at k=%d, want proved", res.Verdict, res.K)
	}
}

func TestNonInductiveInvariantNeedsDeeperK(t *testing.T) {
	// "Counter never reaches m+2": true (states above m-1 are unreachable)
	// but not 0-inductive — the step case at k=0 can start in the
	// unreachable state m+1 and step to m+2. The simple-path constraint
	// makes deeper induction close it.
	res := prove(t, offsetCounter(), core.OrderVSIDS, 16)
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v at k=%d, want proved", res.Verdict, res.K)
	}
	if res.K == 0 {
		t.Fatal("property should not be 0-inductive")
	}
}

func TestBuggyModelsFalsifiedAtBMCDepth(t *testing.T) {
	for _, name := range []string{"tlc_bug", "arb_5_bug", "pipe_s5_bug"} {
		m, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		res := prove(t, m.Build(), core.OrderVSIDS, m.FailDepth+2)
		if res.Verdict != engine.Falsified {
			t.Fatalf("%s: verdict %v, want falsified", name, res.Verdict)
		}
		if res.K != m.FailDepth {
			t.Fatalf("%s: counter-example at %d, want %d", name, res.K, m.FailDepth)
		}
		if res.Trace == nil {
			t.Fatalf("%s: no trace", name)
		}
	}
}

// TestStrategiesAgreeOnInduction: the ordering and the engine shape never
// change a k-induction verdict or its depth — on suite models, and on
// random circuits (the k-induction half of the metamorphic property).
func TestStrategiesAgreeOnInduction(t *testing.T) {
	models := []func() *circuit.Circuit{
		func() *circuit.Circuit { return bench.Twin(6, 0, 0) },
		func() *circuit.Circuit { return bench.GatedCounter(4, 10, 0, 0) },
		func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) },
	}
	for i, build := range models {
		base := prove(t, build(), core.OrderVSIDS, 8)
		for _, st := range []core.Strategy{core.OrderStatic, core.OrderDynamic} {
			res := prove(t, build(), st, 8)
			if res.Verdict != base.Verdict || res.K != base.K {
				t.Fatalf("model %d: %v gives %v@%d, baseline %v@%d",
					i, st, res.Verdict, res.K, base.Verdict, base.K)
			}
		}
	}

	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 12; iter++ {
		c := bench.RandomSequential(rng)
		base := prove(t, c, core.OrderVSIDS, 6)
		shapes := map[string][]engine.Option{
			"static":      {engine.WithOrdering(core.OrderStatic)},
			"dynamic":     nil,
			"warm-single": {engine.WithIncremental()},
			"cold":        cold,
			"warm":        warm,
		}
		for name, opts := range shapes {
			res := proveCtx(t, context.Background(), c, 0, 6, opts...)
			if res.Verdict != base.Verdict || res.K != base.K {
				t.Fatalf("random %d: %s gives %v@%d, sequential vsids %v@%d",
					iter, name, res.Verdict, res.K, base.Verdict, base.K)
			}
		}
	}
}

func TestUnknownWhenMaxKTooSmall(t *testing.T) {
	// The offset-counter invariant is not 0- or 1-inductive; MaxK = 1
	// must yield Unknown, never a wrong verdict.
	res := prove(t, offsetCounter(), core.OrderVSIDS, 1)
	if res.Verdict != engine.Unknown {
		t.Fatalf("verdict %v, want unknown at MaxK=1", res.Verdict)
	}
}

func TestStepFormulaShape(t *testing.T) {
	c := bench.Twin(4, 0, 0)
	u, err := unroll.New(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := unroll.StepFormula(u, 2)
	// Aux variables must extend past the frame-stable range.
	if f.NumVars <= u.NumVars(3) {
		t.Fatalf("no aux vars allocated: %d <= %d", f.NumVars, u.NumVars(3))
	}
	for i, cl := range f.Clauses {
		if int(cl.MaxVar()) > f.NumVars {
			t.Fatalf("clause %d: var %d out of range %d", i, cl.MaxVar(), f.NumVars)
		}
	}
	// The step instance of an inductive property must be UNSAT.
	if r := sat.New(f, sat.Defaults()).Solve(); r.Status != sat.Unsat {
		t.Fatalf("twin step at k=2: %v, want UNSAT", r.Status)
	}
}

func TestStepFormulaSatisfiableForNonInductive(t *testing.T) {
	// The offset-counter's k=0 step must be SAT (the unreachable
	// pre-state exists in the unconstrained state space).
	u, err := unroll.New(offsetCounter(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := sat.New(unroll.StepFormula(u, 0), sat.Defaults()).Solve(); r.Status != sat.Sat {
		t.Fatalf("k=0 step: %v, want SAT", r.Status)
	}
}

func TestStatusStrings(t *testing.T) {
	for v, want := range map[engine.Verdict]string{engine.Proved: "proved", engine.Falsified: "falsified", engine.Unknown: "unknown"} {
		if got := v.String(); got != want {
			t.Errorf("%d: %q != %q", v, got, want)
		}
	}
}

func TestProveRejectsBadProperty(t *testing.T) {
	c := circuit.New("p")
	c.AddProperty("p", circuit.False)
	if _, err := engine.New(c, 7, engine.WithEngine(engine.KInduction), engine.WithBudgets(2, 0)); err == nil {
		t.Fatal("expected error for bad property index")
	}
}

// TestPortfolioAgreesWithSequentialInduction: racing the base and step
// queries must reproduce the sequential prover's verdict and depth on
// proved, falsified, and deeper-k models.
func TestPortfolioAgreesWithSequentialInduction(t *testing.T) {
	models := []struct {
		name  string
		build func() *circuit.Circuit
		maxK  int
	}{
		{"twin", func() *circuit.Circuit { return bench.Twin(8, 0, 0) }, 4},
		{"gcnt", func() *circuit.Circuit { return bench.GatedCounter(4, 10, 0, 0) }, 6},
		{"tlc_bug", func() *circuit.Circuit { return bench.TrafficLight(true, 0, 0) }, 4},
		{"pipe_s5_bug", func() *circuit.Circuit { return bench.Pipeline(5, 8, true) }, 8},
	}
	for _, m := range models {
		seq := prove(t, m.build(), core.OrderVSIDS, m.maxK)
		par := provePortfolio(t, m.build(), m.maxK)
		if par.Verdict != seq.Verdict || par.K != seq.K {
			t.Fatalf("%s: portfolio %v@%d vs sequential %v@%d",
				m.name, par.Verdict, par.K, seq.Verdict, seq.K)
		}
		if par.Verdict == engine.Falsified && par.Trace == nil {
			t.Fatalf("%s: falsified without trace", m.name)
		}
		// Every completed depth raced both queries.
		if len(par.BaseTelemetry.Depths) == 0 || len(par.StepTelemetry.Depths) == 0 {
			t.Fatalf("%s: telemetry empty (base %d, step %d depths)",
				m.name, len(par.BaseTelemetry.Depths), len(par.StepTelemetry.Depths))
		}
	}
}

// TestPortfolioInductionTimeaxisOnly: a timeaxis-containing subset must
// work on the step formula too (auxiliary variables unscored, no panic).
func TestPortfolioInductionTimeaxisOnly(t *testing.T) {
	res := proveCtx(t, context.Background(), bench.GatedCounter(4, 10, 0, 0), 0, 6,
		engine.WithPortfolio(portfolio.StrategySet{core.OrderTimeAxis, core.OrderVSIDS}, 1))
	if res.Verdict != engine.Proved {
		t.Fatalf("verdict %v, want proved", res.Verdict)
	}
}
