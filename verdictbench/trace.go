package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/aiger"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/unroll"
)

// raceKey identifies one race of a check: a query at a depth.
type raceKey struct {
	q engine.Query
	k int
}

// events folds one check's progress stream (DepthFinished, RaceFinished)
// into the per-depth sums the layer metrics need.
type events struct {
	depths             int64
	encode, solve      time.Duration
	formulaClauses     int64
	coreVars           int64
	winnerConflicts    int64
	racerConflicts     int64
	queueWait, raceGap time.Duration
	// won holds the winning attempt's wall of each race until its
	// depth's DepthFinished arrives.
	won map[raceKey]time.Duration
}

func newEvents() *events { return &events{won: map[raceKey]time.Duration{}} }

// observe is the session's progress callback.
func (e *events) observe(ev engine.Event) {
	switch ev.Kind {
	case engine.RaceFinished:
		for _, r := range ev.Racers {
			e.racerConflicts += r.Conflicts
			e.queueWait += r.Wait
			if r.Winner {
				e.winnerConflicts += r.Conflicts
				e.won[raceKey{ev.Query, ev.K}] = r.Wall
			}
		}
	case engine.DepthFinished:
		d := ev.Depth
		e.depths++
		e.encode += d.EncodeWall
		e.solve += d.SolveWall
		e.formulaClauses += int64(d.FormulaClauses)
		e.coreVars += int64(d.CoreVars)
		key := raceKey{ev.Query, ev.K}
		if w, ok := e.won[key]; ok {
			// The session's solve wall minus the winner's own solve:
			// dispatch, and on remote pools the wire.
			e.raceGap += d.SolveWall - w
			delete(e.won, key)
		}
	}
}

// layerSums accumulates a traced pass's per-layer figures.
type layerSums struct {
	parse, dial, check time.Duration
	ev                 events
	unrollClauses      int64
	work               counters
	allocBytes, gcs    int64
	bus                [3]int64 // exported, imported, dedup-dropped
	netBytes           int64
	fallbacks          int64
	load               time.Duration
	loadAllocs         uint64
}

// sumCounters sums a snapshot's counters by base name (labels dropped).
func sumCounters(s *obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	if s == nil {
		return out
	}
	for name, v := range s.Counters {
		base, _, _ := strings.Cut(name, "{")
		out[base] += v
	}
	return out
}

// add folds one traced check into the sums.
func (ls *layerSums) add(o outcome, ev *events) {
	ls.parse += o.parse
	ls.dial += o.dial
	ls.check += o.verdict
	ls.ev.depths += ev.depths
	ls.ev.encode += ev.encode
	ls.ev.solve += ev.solve
	ls.ev.coreVars += ev.coreVars
	ls.ev.winnerConflicts += ev.winnerConflicts
	ls.ev.racerConflicts += ev.racerConflicts
	ls.ev.queueWait += ev.queueWait
	ls.ev.raceGap += ev.raceGap
	if o.res == nil {
		return
	}
	c := sumCounters(o.res.Metrics)
	// Scratch encoders publish no unroll counters: count their formulas.
	if n := c["unroll_clauses_total"]; n > 0 {
		ls.unrollClauses += n
	} else {
		ls.unrollClauses += ev.formulaClauses
	}
	// Remote mirrors keep their solver counters on the worker: count the
	// result's search work for checks whose solvers all ran remotely.
	work := counters{c["solver_conflicts_total"], c["solver_decisions_total"], c["solver_propagations_total"]}
	if work == (counters{}) {
		work = searchCounters(o.res)
	}
	ls.work.Conflicts += work.Conflicts
	ls.work.Decisions += work.Decisions
	ls.work.Propagations += work.Propagations
	ls.allocBytes += o.res.TotalAllocBytes
	ls.gcs += o.res.GCCount
	ls.bus[0] += c["bus_exported_total"]
	ls.bus[1] += c["bus_imported_total"]
	ls.bus[2] += c["bus_dedup_dropped_total"]
	ls.netBytes += c["net_bytes_sent_total"] + c["net_bytes_recv_total"]
	ls.fallbacks += c["remote_fallback_races_total"]
}

// tracedPass runs one pass with every check instrumented and returns its
// sums, outcomes, total turnaround, and the tracer holding its spans.
func (r *runner) tracedPass(ctx context.Context, perm []int, addr string) (*layerSums, []outcome, time.Duration, *obs.Tracer) {
	tr := obs.NewTracer()
	ls := &layerSums{}
	evs := map[int]*events{}
	outs, turns := r.pass(ctx, perm, addr, func(c check) *probe {
		ev := newEvents()
		evs[c.ID] = ev
		return &probe{tr: tr, reg: obs.NewRegistry(), ev: ev}
	})
	for _, o := range outs {
		ls.add(o, evs[o.c.ID])
	}
	return ls, outs, sum(turns), tr
}

// loadProbe times sat.New on the check's formula at the depth its check
// ended, and counts the heap objects the construction allocated.
func loadProbe(c check, k int, tr *obs.Tracer) (time.Duration, uint64, error) {
	u, err := unroll.New(c.circ, 0)
	if err != nil {
		return 0, 0, err
	}
	f := u.Formula(max(k, 0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := tr.Begin(traceLane, "sat.New")
	sp.SetArg("check", c.ID)
	t := time.Now()
	s := sat.New(f, sat.Defaults())
	d := time.Since(t)
	sp.End()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return d, after.Mallocs - before.Mallocs, nil
}

// unstableParses parses every input file twice, writes both circuits
// back, and returns the share of inputs whose two write-backs differ.
func (r *runner) unstableParses() (float64, error) {
	seen := map[string]bool{}
	unstable := 0
	for _, c := range r.checks {
		if seen[c.path] {
			continue
		}
		seen[c.path] = true
		var text [2]string
		for i := range text {
			circ, err := parseFile(c.path)
			if err != nil {
				return 0, err
			}
			if text[i], err = aiger.WriteString(circ); err != nil {
				return 0, err
			}
		}
		if text[0] != text[1] {
			unstable++
		}
	}
	return float64(unstable) / float64(len(seen)), nil
}

// countMetrics are the layer metrics that count deterministic work; on a
// deterministic workload two traced passes must agree on every one.
var countMetrics = []string{
	"engine.depths", "unroll.clauses", "sat.conflicts", "sat.decisions", "sat.propagations",
	"core.core_vars", "racer.bus_exported", "racer.bus_imported", "racer.bus_dedup_dropped", "remote.fallbacks",
}

// traced is the per-layer run: one untraced pass, then two traced passes
// of the same seed-permuted order with the engine's metrics, tracer and
// progress stream attached. Layer figures come from the first traced
// pass; the second must repeat its counts on deterministic workloads.
// The first pass's Chrome trace is written to tracePath.
func (r *runner) traced(ctx context.Context, seed uint64, tracePath string) (*report, error) {
	rp := newReport()
	addr, stop, err := r.startWorker()
	if err != nil {
		return nil, err
	}
	defer stop()
	perm := rand.New(rand.NewPCG(seed, 0x76657264696374)).Perm(len(r.checks))
	id := newIdentity()
	account := func(outs []outcome, same bool) {
		for _, o := range outs {
			rp.tally(o)
			if same && r.w.deterministic {
				rp.verify(id, o)
			}
		}
	}

	outs, turns := r.pass(ctx, perm, addr, nil)
	account(outs, true)
	untraced := sum(turns)
	var sums [2]*layerSums
	var walls [2]time.Duration
	var tr *obs.Tracer
	var first []outcome
	for i := range sums {
		var outs []outcome
		var t *obs.Tracer
		sums[i], outs, walls[i], t = r.tracedPass(ctx, perm, addr)
		account(outs, true)
		if i == 0 {
			tr, first = t, outs
		}
	}

	ls := sums[0]
	for _, o := range first {
		if o.res == nil {
			continue
		}
		d, n, err := loadProbe(o.c, o.res.K, tr)
		if err != nil {
			return nil, err
		}
		ls.load += d
		ls.loadAllocs += n
	}
	unstable, err := r.unstableParses()
	if err != nil {
		return nil, err
	}
	ratio := 0.0
	if r.w.remote {
		// The same checks on a local pool of the same shape, whose search
		// differs from the remote one's by design.
		local, _ := r.pass(ctx, perm, "", nil)
		account(local, false)
		var remoteC, localC int64
		for _, o := range first {
			if o.res != nil {
				remoteC += searchCounters(o.res).Conflicts
			}
		}
		for _, o := range local {
			if o.res != nil {
				localC += searchCounters(o.res).Conflicts
			}
		}
		if localC > 0 {
			ratio = float64(remoteC) / float64(localC)
		}
	}

	layerMetrics(rp, ls)
	rp.set("aiger.unstable_parse_frac", "ratio", unstable)
	rp.set("remote.conflict_ratio", "ratio", ratio)
	rp.set("obs.trace_overhead_frac", "ratio", (walls[0]+walls[1]).Seconds()/(2*untraced.Seconds())-1)

	if r.w.deterministic {
		second := newReport()
		layerMetrics(second, sums[1])
		for _, name := range countMetrics {
			if a, b := rp.metrics[name].Value, second.metrics[name].Value; a != b {
				rp.broken = append(rp.broken, fmt.Sprintf("%s differs between traced passes: %v then %v", name, a, b))
			}
		}
	}

	if err := writeTrace(tr, tracePath); err != nil {
		return nil, err
	}
	rp.linef("workload %s traced: %d checks per pass, 1 untraced + 2 traced passes, seed %d; Chrome trace in %s",
		r.w.name, len(r.checks), seed, tracePath)
	for _, name := range sortedNames(rp.metrics) {
		m := rp.metrics[name]
		rp.linef("  %-26s %16.6f %s", name, m.Value, m.Unit)
	}
	return rp, nil
}

// layerMetrics turns a traced pass's sums into the per-layer metrics
// (all but the three that need more than one pass).
func layerMetrics(rp *report, ls *layerSums) {
	ev := ls.ev
	residual := 0.0
	if ls.check > 0 {
		residual = 1 - (ev.encode+ev.solve).Seconds()/ls.check.Seconds()
	}
	useful := 0.0
	if ev.racerConflicts > 0 {
		useful = float64(ev.winnerConflicts) / float64(ev.racerConflicts)
	}
	props := 0.0
	if ev.solve > 0 {
		props = float64(ls.work.Propagations) / ev.solve.Seconds()
	}
	rp.set("aiger.parse_s", "s", ls.parse.Seconds())
	rp.set("engine.residual_frac", "ratio", residual)
	rp.set("engine.depths", "count", float64(ev.depths))
	rp.set("unroll.encode_s", "s", ev.encode.Seconds())
	rp.set("unroll.clauses", "count", float64(ls.unrollClauses))
	rp.set("sat.load_s", "s", ls.load.Seconds())
	rp.set("sat.load_allocs", "count", float64(ls.loadAllocs))
	rp.set("sat.solve_s", "s", ev.solve.Seconds())
	rp.set("sat.props_per_s", "1/s", props)
	rp.set("sat.conflicts", "count", float64(ls.work.Conflicts))
	rp.set("sat.decisions", "count", float64(ls.work.Decisions))
	rp.set("sat.propagations", "count", float64(ls.work.Propagations))
	rp.set("core.core_vars", "count", float64(ev.coreVars))
	rp.set("mem.alloc_mb", "MB", float64(ls.allocBytes)/1e6)
	rp.set("mem.gc_count", "count", float64(ls.gcs))
	rp.set("portfolio.useful_frac", "ratio", useful)
	rp.set("portfolio.queue_wait_s", "s", ev.queueWait.Seconds())
	rp.set("racer.bus_exported", "count", float64(ls.bus[0]))
	rp.set("racer.bus_imported", "count", float64(ls.bus[1]))
	rp.set("racer.bus_dedup_dropped", "count", float64(ls.bus[2]))
	rp.set("remote.dial_s", "s", ls.dial.Seconds())
	rp.set("remote.net_bytes", "bytes", float64(ls.netBytes))
	rp.set("remote.wire_s", "s", ev.raceGap.Seconds())
	rp.set("remote.fallbacks", "count", float64(ls.fallbacks))
}

// writeTrace writes the tracer's spans as a Chrome trace file.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
