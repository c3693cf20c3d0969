package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/sat"
)

// judge compares a check's verdict and K with the row's ground truth in
// bench.Model. A nil error means the verdict is right:
//
//   - a failing row must be Falsified at exactly its FailDepth;
//   - a passing row under BMC must Hold through its MaxDepth;
//   - a passing row under k-induction must be Proved, or end Unknown
//     at the bound (K == MaxDepth).
func judge(m bench.Model, kind engine.Kind, res *engine.Result) error {
	switch {
	case m.ExpectFail:
		if res.Verdict != engine.Falsified || res.K != m.FailDepth {
			return fmt.Errorf("want falsified at depth %d, got %s at %d", m.FailDepth, res.Verdict, res.K)
		}
	case kind == engine.BMC:
		if res.Verdict != engine.Holds || res.K != m.MaxDepth {
			return fmt.Errorf("want holds through depth %d, got %s at %d", m.MaxDepth, res.Verdict, res.K)
		}
	default:
		atBound := res.Verdict == engine.Unknown && res.K == m.MaxDepth
		if res.Verdict != engine.Proved && !atBound {
			return fmt.Errorf("want proved, or unknown at bound %d, got %s at %d", m.MaxDepth, res.Verdict, res.K)
		}
	}
	return nil
}

// counters is a check's deterministic search work: conflicts, decisions
// and propagations summed over every query. Portfolio results count
// winners only.
type counters struct {
	Conflicts, Decisions, Propagations int64
}

// searchCounters reads the counters off a result.
func searchCounters(res *engine.Result) counters {
	var st sat.Stats
	st.Add(res.Total)
	st.Add(res.BaseStats)
	st.Add(res.StepStats)
	return counters{Conflicts: st.Conflicts, Decisions: st.Decisions, Propagations: st.Implications}
}

// identity is the search-identity check: on a deterministic workload
// every run of a check must repeat the counters of its first run. A
// mismatch means the search changed between runs of identical input.
type identity struct {
	first map[int]counters
}

func newIdentity() *identity { return &identity{first: map[int]counters{}} }

// observe records the counters of one run of c and returns an error if
// they differ from the first run's.
func (id *identity) observe(c check, got counters) error {
	want, seen := id.first[c.ID]
	if !seen {
		id.first[c.ID] = got
		return nil
	}
	if got != want {
		return fmt.Errorf("search changed between runs: first %+v, now %+v", want, got)
	}
	return nil
}
