package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/aiger"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/remote"
)

// checkTimeout bounds one Session.Check. The slowest check of the suite
// takes a few seconds; a check that runs into this budget ends Unknown
// and is counted as failed by the oracle.
const checkTimeout = 60 * time.Second

// traceLane is the trace lane of the benchmark's own spans.
const traceLane = "verdictbench"

// runner runs one workload's checks.
type runner struct {
	w      workload
	checks []check
}

// newRunner writes every check's input to dir as ASCII AIGER, the form
// cmd/bmc reads, so each check can parse its input the way the CLI does.
func newRunner(w workload, dir string) (*runner, error) {
	r := &runner{w: w, checks: w.checks()}
	for i := range r.checks {
		c := &r.checks[i]
		c.path = filepath.Join(dir, c.Model.Name+".aag")
		if _, err := os.Stat(c.path); err == nil {
			continue // a row checked under two engines shares its file
		}
		text, err := aiger.WriteString(c.circ)
		if err != nil {
			return nil, fmt.Errorf("write %s: %w", c.Model.Name, err)
		}
		if err := os.WriteFile(c.path, []byte(text), 0o644); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// worker is the remote-wire workload's race server: one remote.Worker
// serving a 127.0.0.1 listener in this process.
type worker struct {
	ln   net.Listener
	done chan struct{}
}

// startWorker starts a worker on an ephemeral local port.
func startWorker() (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	wk := &worker{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(wk.done)
		remote.NewWorker(remote.WorkerOptions{}).Serve(ln) //nolint:errcheck // the accept error after stop is the shutdown signal
	}()
	return wk, nil
}

func (wk *worker) addr() string { return wk.ln.Addr().String() }

// stop closes the listener and waits until every connection handler has
// returned.
func (wk *worker) stop() {
	wk.ln.Close()
	<-wk.done
}

// probe instruments one traced check: the engine's metrics, trace and
// progress stream, plus the benchmark's own spans on the same tracer.
type probe struct {
	tr  *obs.Tracer
	reg *obs.Registry
	ev  *events
}

// outcome is one check's run.
type outcome struct {
	c check
	// parse, dial and open time the set-up calls: aiger.Read of the
	// input, remote.New (remote workloads), and engine.New.
	parse, dial, open time.Duration
	// verdict is the time from the Session.Check call to its return.
	verdict time.Duration
	res     *engine.Result
	// err is a run error, a parse mismatch, or the oracle's verdict
	// disagreement; a non-nil err counts the check as failed.
	err error
}

func (o outcome) setup() time.Duration { return o.parse + o.dial + o.open }

// span opens one of the benchmark's spans for check id (no-op untraced).
func (p *probe) span(name string, id int) *obs.Span {
	if p == nil {
		return nil
	}
	sp := p.tr.Begin(traceLane, name)
	sp.SetArg("check", id)
	return sp
}

// session performs the set-up a check needs: parse its input the way
// cmd/bmc does and match it against the generator's circuit, dial the
// worker (addr != ""), and open the engine session. The returned close
// releases the executor.
func (r *runner) session(c check, addr string, p *probe, o *outcome) (*engine.Session, func(), error) {
	noop := func() {}
	sp := p.span("aiger.Read", c.ID)
	t := time.Now()
	parsed, err := parseFile(c.path)
	o.parse = time.Since(t)
	sp.End()
	if err != nil {
		return nil, noop, err
	}
	if err := sameShape(parsed, c.circ); err != nil {
		return nil, noop, err
	}
	opts := r.w.options(c)
	var reg *obs.Registry
	var tr *obs.Tracer
	if p != nil {
		reg, tr = p.reg, p.tr
		opts = append(opts, engine.WithMetrics(reg), engine.WithTracer(tr), engine.WithProgress(p.ev.observe))
	}
	release := noop
	if addr != "" {
		// One executor per check, as cmd/bmc -remote dials one per run.
		sp := p.span("remote.New", c.ID)
		t := time.Now()
		ex, err := remote.New([]string{addr}, remote.Options{Session: c.String(), Metrics: reg, Tracer: tr})
		o.dial = time.Since(t)
		sp.End()
		if err != nil {
			return nil, noop, err
		}
		release = func() { ex.Close() }
		opts = append(opts, engine.WithExecutor(ex))
	}
	sp = p.span("engine.New", c.ID)
	t = time.Now()
	sess, err := engine.New(c.circ, 0, opts...)
	o.open = time.Since(t)
	sp.End()
	if err != nil {
		release()
		return nil, noop, err
	}
	return sess, release, nil
}

// run performs one check end to end and judges its verdict.
func (r *runner) run(ctx context.Context, c check, addr string, p *probe) outcome {
	o := outcome{c: c}
	sess, release, err := r.session(c, addr, p, &o)
	defer release()
	if err != nil {
		o.err = err
		return o
	}
	ctx, cancel := context.WithTimeout(ctx, checkTimeout)
	defer cancel()
	sp := p.span("Session.Check", c.ID)
	t := time.Now()
	o.res, o.err = sess.Check(ctx)
	o.verdict = time.Since(t)
	sp.End()
	if o.err == nil {
		o.err = judge(c.Model, c.Kind, o.res)
	}
	return o
}

// setupOnly performs the set-up of one check without checking and
// returns its time: the parse, the dial and engine.New.
func (r *runner) setupOnly(c check, addr string) (time.Duration, error) {
	var o outcome
	_, release, err := r.session(c, addr, nil, &o)
	release()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c, err)
	}
	return o.setup(), nil
}

// parseFile reads an AIGER file as cmd/bmc does.
func parseFile(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aiger.Read(f)
}

// sameShape checks that a parsed circuit has the generator circuit's
// inputs, latches, AND gates and properties.
func sameShape(got, want *circuit.Circuit) error {
	if got.NumInputs() != want.NumInputs() || got.NumLatches() != want.NumLatches() ||
		got.NumAnds() != want.NumAnds() || len(got.Properties()) != len(want.Properties()) {
		return fmt.Errorf("parsed circuit differs from the generator's: %s, want %s", got.Stats(), want.Stats())
	}
	return nil
}

// collect runs a full collection between checks, outside every timed
// interval, so that one check's garbage is not collected on the next
// check's clock. The freed heap stays mapped, as in any long-running
// process: returning it to the OS made every check fault its heap back
// in, which cost little but tied short checks to the machine's page-fault
// latency, the noisiest part of a shared machine.
func collect() { runtime.GC() }
