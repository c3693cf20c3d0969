package engine

import (
	"context"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/lits"
	"repro/internal/portfolio"
	"repro/internal/racer"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// The four depth solvers behind the driver, and the one place a session
// turns its configuration into them:
//
//   - scratchSolver builds the depth-k instance from scratch (u.Formula,
//     or unroll.StepFormula for the step query) and solves it inline;
//   - liveSolver keeps one incremental solver across depths and feeds it
//     each depth's frame (unroll.Delta);
//   - coldRace builds the instance from scratch and races one throwaway
//     solver per strategy through the Executor;
//   - warmPool races persistent per-strategy solvers (racer.Pool).

// queries builds the session's queries and wires them to the Result
// fields they feed.
func (s *Session) queries(ctx context.Context, u *unroll.Unroller, res *Result) []*query {
	set := portfolio.StrategySet{s.cfg.Ordering}
	if s.cfg.Portfolio {
		set = s.cfg.Strategies
		if len(set) == 0 {
			set = portfolio.DefaultSet()
		}
	}
	if s.racing() {
		res.Strategies = set.Names()
		res.Jobs = s.cfg.Jobs
		res.Warm = s.cfg.Incremental
	}
	if s.cfg.Kind == BMC {
		q := s.newQuery(ctx, u, QueryBMC, set)
		q.total, q.rows, res.Telemetry = &res.Total, &res.PerDepth, q.tel
		return []*query{q}
	}
	base, step := s.newQuery(ctx, u, QueryBase, set), s.newQuery(ctx, u, QueryStep, set)
	base.total, res.BaseTelemetry = &res.BaseStats, base.tel
	step.total, res.StepTelemetry = &res.StepStats, step.tel
	return []*query{base, step}
}

// racing reports whether the session decides depths by races: every
// portfolio, and the incremental k-induction engine, which always runs
// warm pools (one strategy each without a portfolio).
func (s *Session) racing() bool {
	return s.cfg.Portfolio || (s.cfg.Incremental && s.cfg.Kind == KInduction)
}

// newQuery picks the depth solver for one query over the strategy set:
// a race, cold or (incremental) warm, when the session races, and
// otherwise the single ordering solved inline, from scratch or on a live
// solver.
func (s *Session) newQuery(ctx context.Context, u *unroll.Unroller, name Query, set portfolio.StrategySet) *query {
	q := &query{name: name, step: name == QueryStep}
	if s.racing() {
		q.tel = portfolio.NewTelemetry()
		q.tel.SetMetrics(s.cfg.Metrics, string(name))
	}
	if s.cfg.Incremental {
		var src racer.Source
		if q.step {
			sd := u.StepDelta()
			sd.SetMetrics(s.unrollMetrics(name))
			src = racer.StepSource(sd)
		} else {
			d := u.Delta()
			d.SetMetrics(s.unrollMetrics(name))
			src = racer.DeltaSource(d)
			q.extract = d.ExtractTrace
		}
		if s.racing() {
			q.solver = warmPool{racer.NewPool(src, s.poolConfig(ctx, name, set))}
		} else {
			q.solver = s.newLiveSolver(ctx, src, name)
		}
		return q
	}

	if !q.step {
		q.extract = u.ExtractTrace
	}
	in := &scratchInstances{
		u:       u,
		step:    q.step,
		base:    s.solverBase(ctx),
		divisor: s.divisor(),
		board:   core.NewScoreBoard(s.cfg.ScoreMode),
		feed:    consumesCores(set),
		record:  consumesCores(set) || s.cfg.ForceRecording,
	}
	metrics := make([]*sat.Metrics, len(set))
	for i, st := range set {
		metrics[i] = s.solverMetrics(name, st.String())
	}
	if s.racing() {
		q.solver = &coldRace{in: in, query: name, set: set, metrics: metrics, exec: s.executor(), jobs: s.cfg.Jobs}
	} else {
		q.solver = &scratchSolver{in: in, st: s.cfg.Ordering, metrics: metrics[0]}
	}
	return q
}

// consumesCores reports whether any strategy of the set reads the score
// board (static and dynamic), which is when unsat cores are folded in.
func consumesCores(set portfolio.StrategySet) bool {
	for _, st := range set {
		if st == core.OrderStatic || st == core.OrderDynamic {
			return true
		}
	}
	return false
}

// divisor resolves the dynamic strategy's switch divisor.
func (s *Session) divisor() int {
	if s.cfg.SwitchDivisor != 0 {
		return s.cfg.SwitchDivisor
	}
	return core.SwitchDivisor
}

// scratchInstances builds one query's depth-k instances from scratch and
// configures a solver per strategy for them: the shared half of the
// scratch solver and the cold race.
type scratchInstances struct {
	u *unroll.Unroller
	// step selects the induction step instance (unroll.StepFormula over
	// k+2 frames) instead of the BMC instance (u.Formula over k+1).
	step bool
	// base is the session's solver options (budgets, deadline, stop);
	// divisor the dynamic strategy's switch divisor.
	base    sat.Options
	divisor int
	board   *core.ScoreBoard
	// record attaches proof recorders; feed folds the winning core into
	// the board (update_ranking).
	record, feed bool
}

// formula builds the depth-k instance and times the build.
func (in *scratchInstances) formula(k int) (*cnf.Formula, time.Duration) {
	start := time.Now()
	if in.step {
		return unroll.StepFormula(in.u, k), time.Since(start)
	}
	return in.u.Formula(k), time.Since(start)
}

// options configures one strategy's solver for the depth-k instance f:
// board-fed guidance for static/dynamic (with the dynamic switch
// threshold), frame scores for timeaxis, plain VSIDS otherwise.
func (in *scratchInstances) options(st core.Strategy, f *cnf.Formula, k int, m *sat.Metrics) (sat.Options, *core.Recorder) {
	so := in.base
	so.Metrics = m
	if st == core.OrderTimeAxis {
		frames := k + 1
		if in.step {
			frames = k + 2
		}
		so.Guidance = frameGuidance(in.u, frames, f.NumVars)
	} else {
		st.ConfigureWithDivisor(&so, in.board, f, in.divisor)
	}
	var rec *core.Recorder
	if in.record {
		rec = core.NewRecorder(f.NumClauses())
		so.Recorder = rec
	}
	return so, rec
}

// fold records the winning solver's unsat core in the depth row and, for
// core-consuming strategy sets, folds its variables into the board,
// weighted by the 1-based instance number (the paper's j).
func (in *scratchInstances) fold(ds *DepthStats, rec *core.Recorder, f *cnf.Formula, k int) {
	if rec == nil || !rec.HasProof() {
		return
	}
	coreVars := rec.CoreVars(f)
	ds.CoreClauses = len(rec.Core())
	ds.CoreVars = len(coreVars)
	ds.RecorderBytes = rec.ApproxBytes()
	if in.feed {
		in.board.Update(coreVars, k+1)
	}
}

// frameGuidance builds the Shtrichman-style time-axis scores for an
// instance spanning the given number of frames: variables of frame 0
// score highest, later frames lower, and variables past the unroller's
// frame-stable range (the step encoding's disequality auxiliaries) score
// zero.
func frameGuidance(u *unroll.Unroller, frames, nVars int) []float64 {
	g := make([]float64, nVars+1)
	framed := u.NumVars(frames - 1)
	for v := 1; v <= nVars && v <= framed; v++ {
		_, frame := u.NodeOf(lits.Var(v))
		g[v] = float64(frames - frame)
	}
	return g
}

// newDepthStats starts a depth row with the instance's size.
func newDepthStats(k int, f *cnf.Formula, encode time.Duration) DepthStats {
	return DepthStats{
		K:              k,
		Status:         sat.Unknown,
		EncodeWall:     encode,
		FormulaVars:    f.NumVars,
		FormulaClauses: f.NumClauses(),
		FormulaLits:    f.NumLiterals(),
	}
}

// scratchSolver solves each depth's instance inline on a fresh solver
// (the paper's loop as written).
type scratchSolver struct {
	in      *scratchInstances
	st      core.Strategy
	metrics *sat.Metrics
}

func (q *scratchSolver) solve(k int, _ <-chan struct{}) depthResult {
	f, encode := q.in.formula(k)
	so, rec := q.in.options(q.st, f, k, q.metrics)
	r := sat.New(f, so).Solve()
	o := depthResult{ds: newDepthStats(k, f, encode), model: r.Model}
	o.ds.Status, o.ds.Stats, o.ds.SolveWall = r.Status, r.Stats, r.Stats.SolveTime
	if r.Status == sat.Unsat {
		q.in.fold(&o.ds, rec, f, k)
	}
	return o
}

// coldRace races one throwaway solver per strategy at every depth through
// the session's Executor; the winner's core feeds the shared board.
type coldRace struct {
	in      *scratchInstances
	query   Query
	set     portfolio.StrategySet
	metrics []*sat.Metrics
	exec    Executor
	jobs    int
}

func (q *coldRace) solve(k int, stop <-chan struct{}) depthResult {
	f, encode := q.in.formula(k)
	attempts := make([]portfolio.Attempt, len(q.set))
	recs := make([]*core.Recorder, len(q.set))
	for i, st := range q.set {
		var so sat.Options
		so, recs[i] = q.in.options(st, f, k, q.metrics[i])
		attempts[i] = portfolio.Attempt{Name: st.String(), Opts: so}
	}
	race := q.exec.Race(q.query, f, attempts, q.jobs, stop)
	o := depthResult{ds: newDepthStats(k, f, encode), race: &race}
	o.ds.Winner, o.ds.SolveWall = race.WinnerName(), race.Wall
	if race.Winner >= 0 {
		o.ds.Status, o.ds.Stats, o.model = race.Result.Status, race.Result.Stats, race.Result.Model
		if race.Result.Status == sat.Unsat {
			q.in.fold(&o.ds, recs[race.Winner], f, k)
		}
	}
	return o
}

// liveSolver keeps one incremental solver across the whole depth loop:
// each depth adds only the new frame's clauses and solves under the
// depth's activation literal, so learned clauses, VSIDS scores, and saved
// phases compound across depths.
type liveSolver struct {
	src    racer.Source
	solver *sat.Solver
	st     core.Strategy
	board  *core.ScoreBoard
	feed   bool
	// rec is the cross-depth CDG; clausesByID maps original-clause proof
	// IDs back to literals for core extraction (the incremental analogue
	// of indexing f.Clauses). Both nil without recording.
	rec                     *core.IncrementalRecorder
	clausesByID             map[sat.ClauseID]cnf.Clause
	totalClauses, totalLits int
	divisor                 int
}

func (s *Session) newLiveSolver(ctx context.Context, src racer.Source, name Query) *liveSolver {
	q := &liveSolver{
		src:     src,
		st:      s.cfg.Ordering,
		board:   core.NewScoreBoard(s.cfg.ScoreMode),
		feed:    consumesCores(portfolio.StrategySet{s.cfg.Ordering}),
		divisor: s.divisor(),
	}
	so := s.solverBase(ctx)
	so.Metrics = s.solverMetrics(name, q.st.String())
	if q.feed || s.cfg.ForceRecording {
		q.rec = core.NewIncrementalRecorder()
		q.clausesByID = make(map[sat.ClauseID]cnf.Clause)
		so.Recorder = q.rec
	}
	q.solver = sat.New(cnf.New(0), so)
	return q
}

func (q *liveSolver) solve(k int, _ <-chan struct{}) depthResult {
	start := time.Now()
	frame := q.src.Frame(k)
	q.solver.AddVars(frame.NumVars)
	for _, cl := range frame.Clauses {
		id := q.solver.AddClause(cl)
		if q.rec != nil {
			q.clausesByID[id] = cl
		}
		q.totalLits += len(cl)
	}
	q.totalClauses += frame.NumClauses()
	encode := time.Since(start)

	racer.ApplyStrategy(q.solver, q.st, q.board, q.src, k, q.totalLits, q.divisor)
	r := q.solver.SolveAssuming([]lits.Lit{q.src.Assumption(k)})
	o := depthResult{model: r.Model, ds: DepthStats{
		K:              k,
		Status:         r.Status,
		Stats:          r.Stats,
		EncodeWall:     encode,
		SolveWall:      r.Stats.SolveTime,
		FormulaVars:    frame.NumVars,
		FormulaClauses: q.totalClauses,
		FormulaLits:    q.totalLits,
	}}
	if r.Status == sat.Unsat && q.rec != nil && q.rec.HasProof() {
		coreIDs := q.rec.Core()
		coreVars := racer.CoreVars(q.src, coreIDs, q.clausesByID, frame.NumVars)
		o.ds.CoreClauses = len(coreIDs)
		o.ds.CoreVars = len(coreVars)
		o.ds.RecorderBytes = q.rec.ApproxBytes()
		if q.feed {
			q.board.Update(coreVars, k+1)
		}
		q.rec.ResetFinal()
	}
	return o
}

// warmPool races the persistent solvers of a racer.Pool at every depth;
// the pool feeds frames, folds winner cores into its own board, and runs
// the clause bus.
type warmPool struct{ pool *racer.Pool }

func (q warmPool) solve(k int, stop <-chan struct{}) depthResult {
	out := q.pool.RaceDepthStop(k, stop)
	race := &out.Race
	o := depthResult{race: race, bus: &out, ds: DepthStats{
		K:              k,
		Status:         sat.Unknown,
		Winner:         race.WinnerName(),
		EncodeWall:     out.EncodeWall,
		SolveWall:      race.Wall,
		FormulaVars:    out.FrameVars,
		FormulaClauses: out.TotalClauses,
		FormulaLits:    out.TotalLits,
		CoreClauses:    out.CoreClauses,
		CoreVars:       out.CoreVars,
		RecorderBytes:  out.RecorderBytes,
	}}
	if race.Winner >= 0 {
		o.ds.Status, o.ds.Stats, o.model = race.Result.Status, race.Result.Stats, race.Result.Model
	}
	return o
}

// poolConfig translates the session config into a warm racer pool
// configuration over the strategy set, routing races and clause-bus
// payloads through the Executor seam. query labels the payloads for
// OnClausePayload and selects the bus: the k-induction step pool runs
// its own (StepExchange). Both k-induction sequences spend stretches
// hunting models (every step instance below the closing depth is SAT;
// the base instance at a failure depth is SAT), where a full-mesh bus
// can converge all racers onto the same wrong turn, so their pools keep
// one racer import-free as the diversity reserve.
func (s *Session) poolConfig(ctx context.Context, query Query, set portfolio.StrategySet) racer.Config {
	exec := s.executor()
	exchange := s.cfg.Exchange
	if query == QueryStep {
		exchange = s.cfg.StepExchange
	}
	if s.cfg.Kind == KInduction {
		exchange.ReserveFirst = true
	}
	exchange.OnExport = func(k int, from string, clauses []cnf.Clause) {
		exec.OnClausePayload(query, k, from, clauses)
	}
	var onFrame func(k int, frame *cnf.Formula)
	if sink, ok := exec.(FrameSink); ok {
		onFrame = func(k int, frame *cnf.Formula) {
			sink.OnFrame(query, k, frame)
		}
	}
	cfg := racer.Config{
		Strategies:           set,
		Jobs:                 s.cfg.Jobs,
		Solver:               s.cfg.Solver,
		ScoreMode:            s.cfg.ScoreMode,
		SwitchDivisor:        s.cfg.SwitchDivisor,
		PerInstanceConflicts: s.cfg.PerInstanceConflicts,
		ForceRecording:       s.cfg.ForceRecording,
		Exchange:             exchange,
		Race: func(q string, attempts []portfolio.LiveAttempt, assumps []lits.Lit, jobs int, stop <-chan struct{}) portfolio.RaceResult {
			return exec.RaceLive(Query(q), attempts, assumps, jobs, stop)
		},
		OnFrame: onFrame,
		Metrics: s.cfg.Metrics,
		Query:   string(query),
	}
	if dl, ok := ctx.Deadline(); ok {
		cfg.Deadline = dl
	}
	return cfg
}
