package main

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/portfolio"
	"repro/internal/racer"
)

// racers is the benchmark's CPU allowance: at most two solver goroutines
// busy at a time, the size of the machine the figures were set on.
const racers = 2

// check is one property check of a workload's pass: a suite row under
// one engine.
type check struct {
	// ID is the check's position in the workload's list; it is stable
	// across passes and seeds, and tags every trace span of the check.
	ID    int
	Model bench.Model
	Kind  engine.Kind
	// circ is the generator's circuit. Sessions are built on it, not on
	// the parsed file, until the AIGER reader numbers a circuit the same
	// way on every parse (see aiger.unstable_parse_frac).
	circ *circuit.Circuit
	// path is the check's input, written as ASCII AIGER at set-up.
	path string
}

// String names the check in reports: row and engine.
func (c check) String() string { return c.Model.Name + "/" + c.Kind.String() }

// workload is one set of checks and the engine shape they run under.
type workload struct {
	name string
	// rows selects the suite rows; each selected row is checked under
	// every engine in kinds, in that order.
	rows  func(bench.Model) bool
	kinds []engine.Kind
	// shape adds the workload's engine options on top of the CLI
	// defaults (BMC or k-induction, dynamic ordering, scratch solvers).
	shape []engine.Option
	// remote sends every race to a remote.Worker on a 127.0.0.1
	// listener, through one remote.Executor dialled per check.
	remote bool
	// deterministic workloads must repeat their search counters exactly
	// on every check of the same row.
	deterministic bool
}

// hard reports whether a row is one of the suite's 13 conflict-heavy
// passing rows (mix_w*, pipe_s*, add_w*).
func hard(m bench.Model) bool {
	if m.ExpectFail {
		return false
	}
	for _, p := range []string{"mix_w", "pipe_s", "add_w"} {
		if strings.HasPrefix(m.Name, p) {
			return true
		}
	}
	return false
}

// warmPool is the warm portfolio's engine shape, as cmd/bmc builds it
// for -order=portfolio -incremental (clause bus on).
func warmPool(set portfolio.StrategySet, jobs int) []engine.Option {
	return []engine.Option{
		engine.WithPortfolio(set, jobs),
		engine.WithIncremental(),
		engine.WithExchange(racer.ExchangeOptions{Enabled: true}),
	}
}

// dynamicOnly is the single-strategy set of the remote-wire pool.
var dynamicOnly = portfolio.StrategySet{core.OrderDynamic}

var workloads = []workload{
	{
		name:          "regress",
		rows:          func(m bench.Model) bool { return !hard(m) },
		kinds:         []engine.Kind{engine.BMC, engine.KInduction},
		deterministic: true,
	},
	{
		name:          "search",
		rows:          hard,
		kinds:         []engine.Kind{engine.BMC},
		deterministic: true,
	},
	{
		name:  "warm-race",
		rows:  func(bench.Model) bool { return true },
		kinds: []engine.Kind{engine.BMC},
		shape: warmPool(nil, racers),
	},
	{
		name:          "remote-wire",
		rows:          func(bench.Model) bool { return true },
		kinds:         []engine.Kind{engine.BMC},
		shape:         warmPool(dynamicOnly, 0),
		remote:        true,
		deterministic: true,
	},
}

// workloadByName resolves a workload.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// checks lists the workload's pass in its canonical order, each check
// carrying its row's generator circuit.
func (w workload) checks() []check {
	var out []check
	for _, m := range bench.Suite() {
		if !w.rows(m) {
			continue
		}
		circ := m.Build()
		for _, k := range w.kinds {
			out = append(out, check{ID: len(out), Model: m, Kind: k, circ: circ})
		}
	}
	return out
}

// options is the check's full engine configuration: the CLI defaults
// (the row's depth bound, no conflict budget) plus the workload's shape.
func (w workload) options(c check) []engine.Option {
	opts := []engine.Option{engine.WithEngine(c.Kind), engine.WithBudgets(c.Model.MaxDepth, 0)}
	return append(opts, w.shape...)
}
