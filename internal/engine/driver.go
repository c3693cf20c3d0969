package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/lits"
	"repro/internal/obs"
	"repro/internal/portfolio"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// The depth driver: the paper's refine_order_bmc loop (Fig. 5) written
// once for every engine shape. Per depth it checks the context, solves
// the depth's queries, books their statistics, races and bus traffic,
// closes the depth spans and events, and applies the verdict tail. The
// queries hide how a depth is decided (see query.go): a scratch solver,
// a live incremental solver, a cold race or a warm pool. BMC runs one
// query; k-induction pairs a base query with a step query, in order for
// the sequential prover and side by side for the racing shapes.
// Cancellation and deadlines arrive through ctx: checked once per depth
// here, polled inside every solver via sat.Options.Stop/Deadline from
// solverBase.

// depthResult is one query's outcome at one depth.
type depthResult struct {
	// ds is the depth's row; Status is sat.Unknown when a race ended
	// without a winner.
	ds    DepthStats
	model lits.Assignment
	// race is the depth's race (racing shapes only); bus the warm pool's
	// depth-boundary outcome (warm shapes only).
	race *portfolio.RaceResult
	bus  *racer.DepthOutcome
}

// depthSolver decides one query's depth-k instance. stop cancels a race
// cooperatively; solvers that run inline poll the session context
// instead. Depths are solved in order starting at 0.
type depthSolver interface {
	solve(k int, stop <-chan struct{}) depthResult
}

// query is one instance sequence of a check — the BMC sequence, or the
// k-induction base or step sequence — with the solver that decides it
// and the Result fields its depths feed.
type query struct {
	name   Query
	solver depthSolver
	// step marks the k-induction step query, whose UNSAT proves the
	// property and whose SAT is inconclusive. For the other queries SAT
	// is a counter-example and UNSAT moves on.
	step bool
	// extract decodes a SAT model of depth k (nil for the step query).
	extract func(model lits.Assignment, k int) *unroll.Trace
	// total accumulates the query's solver statistics; tel is its race
	// telemetry (racing shapes only); rows, when non-nil, collects its
	// depth rows (Result.PerDepth, BMC only).
	total *sat.Stats
	tel   *portfolio.Telemetry
	rows  *[]DepthStats
}

// drive runs the depth loop over the session's queries.
func (s *Session) drive(ctx context.Context, u *unroll.Unroller) (*Result, error) {
	// A BMC loop that runs out of depths has a bounded guarantee; a
	// k-induction one has no verdict.
	res := &Result{Verdict: Holds, K: -1}
	if s.cfg.Kind == KInduction {
		res.Verdict = Unknown
	}
	qs := s.queries(ctx, u, res)
	// The racing k-induction shapes solve base and step side by side;
	// everything else solves its queries in order.
	together := len(qs) > 1 && s.racing()

	for k := 0; k <= s.cfg.MaxDepth; k++ {
		if ctx.Err() != nil {
			// BMC reports the first depth it did not finish, k-induction
			// the last depth whose queries ran.
			if s.cfg.Kind == BMC {
				res.K = k
			}
			res.Verdict = Unknown
			return res, nil
		}
		var outs []depthResult
		if together {
			outs = s.solveDepth(ctx, k, qs)
		} else {
			for i := range qs {
				outs = append(outs, s.solveDepth(ctx, k, qs[i:i+1])...)
				if outs[i].ds.Status != sat.Unsat {
					break
				}
			}
		}
		res.K = k
		for i, o := range outs {
			q := qs[i]
			switch st := o.ds.Status; {
			case st == sat.Sat && !q.step:
				res.Verdict = Falsified
				res.Trace = q.extract(o.model, k)
				if !s.cfg.SkipTraceVerification && !u.Replay(res.Trace) {
					winner := ""
					if o.ds.Winner != "" {
						winner = " (winner " + o.ds.Winner + ")"
					}
					return nil, fmt.Errorf("engine: depth-%d %s counter-example%s failed replay on %s",
						k, q.name, winner, s.circ.Name())
				}
				return res, nil
			case st == sat.Unsat && q.step:
				res.Verdict = Proved
				return res, nil
			case st != sat.Sat && st != sat.Unsat:
				// A budget ran out or the check was cancelled mid-depth —
				// also when a race names a winner without a verdict.
				// Deeper depths would be undecided too.
				res.Verdict = Unknown
				return res, nil
			}
		}
	}
	return res, nil
}

// solveDepth solves depth k of a group of queries and books the outcome.
// A group of one solves inline. A group of two is the k-induction pair:
// the step query solves on its own goroutine, and a base verdict that
// makes it moot (a counter-example, or undecided) cancels it. Events and
// spans come in the order every shape has always reported them: all
// DepthStarted, then all RaceFinished, all ExchangeFlushed, and all
// DepthFinished.
func (s *Session) solveDepth(ctx context.Context, k int, group []*query) []depthResult {
	start := time.Now()
	for _, q := range group {
		s.emit(Event{Kind: DepthStarted, Query: q.name, K: k})
	}
	spans := make([]*obs.Span, len(group))
	for i, q := range group {
		spans[i] = s.beginDepth(q.name, k)
	}
	outs := make([]depthResult, len(group))
	moot := false
	if len(group) == 1 {
		outs[0] = group[0].solver.solve(k, ctx.Done())
	} else {
		stop, cancel, release := stepStopper(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			outs[1] = group[1].solver.solve(k, stop)
		}()
		outs[0] = group[0].solver.solve(k, ctx.Done())
		if moot = outs[0].ds.Status != sat.Unsat; moot {
			cancel()
		}
		<-done
		release()
	}
	for i, q := range group {
		q.account(k, &outs[i], moot && i > 0)
	}
	for i, q := range group {
		if outs[i].race != nil {
			s.observeRace(q.name, k, outs[i].race)
		}
	}
	for i, q := range group {
		if outs[i].bus != nil {
			s.observeExchange(q.name, k, outs[i].bus)
		}
	}
	for i, q := range group {
		outs[i].ds.Wall = time.Since(start)
		s.finishDepth(spans[i], q.name, &outs[i].ds)
		if q.rows != nil {
			*q.rows = append(*q.rows, outs[i].ds)
		}
	}
	return outs
}

// account folds one depth into the query's statistics and telemetry. An
// aborted race — a step race cancelled because the base made it moot —
// is no evidence about any strategy: it is recorded apart, so it does not
// count every racer as a loser, and its bus traffic earns no win
// attribution.
func (q *query) account(k int, o *depthResult, aborted bool) {
	q.total.Add(o.ds.Stats)
	if o.race == nil {
		return
	}
	if aborted {
		q.tel.ObserveAborted(k, o.race)
	} else {
		q.tel.Observe(k, o.race)
	}
	if b := o.bus; b != nil {
		q.tel.ObserveExchange(b.Exported, b.Imported, b.DedupDropped, b.WinnerWarm && !aborted, b.WinnerShared && !aborted)
	}
}

// stepStopper builds the step race's cancellation channel: closed when
// the base verdict makes the step moot, or when ctx is cancelled (so a
// mid-step cancellation interrupts the race promptly instead of waiting
// for its budget). The returned release func must be called once the
// step race has joined.
func stepStopper(ctx context.Context) (stop chan struct{}, cancel func(), release func()) {
	stop = make(chan struct{})
	var once sync.Once
	cancel = func() { once.Do(func() { close(stop) }) }
	release = func() {}
	if ctx.Done() != nil {
		done := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				cancel()
			case <-done:
			}
		}()
		release = func() { close(done) }
	}
	return stop, cancel, release
}
