package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"time"
)

// setupSamples is how many extra times a run times a check's set-up
// alone before each run of the check.
const setupSamples = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome: the metrics printed in the JSON result and
// the human-readable lines printed above it.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// broken records search-identity mismatches: they make the result
	// incorrect without failing any one check.
	broken []string
	lines  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (rp *report) set(name, unit string, v float64) { rp.metrics[name] = metric{Value: v, Unit: unit} }

func (rp *report) linef(format string, args ...any) {
	rp.lines = append(rp.lines, fmt.Sprintf(format, args...))
}

// tally counts one check: attempted, and failed if its error is set.
func (rp *report) tally(o outcome) {
	rp.attempted++
	if o.err != nil {
		rp.failed++
		fmt.Fprintf(os.Stderr, "verdictbench: check %d %s failed: %v\n", o.c.ID, o.c, o.err)
	}
}

// verify applies the search-identity check to a finished check.
func (rp *report) verify(id *identity, o outcome) {
	if o.res == nil {
		return
	}
	if err := id.observe(o.c, searchCounters(o.res)); err != nil {
		rp.broken = append(rp.broken, fmt.Sprintf("check %d %s: %v", o.c.ID, o.c, err))
	}
}

// pass runs every check once in the order perm gives and returns their
// outcomes and turnaround times (set-up, check, and release of each).
// p, when non-nil, instruments each check.
func (r *runner) pass(ctx context.Context, perm []int, addr string, p func(check) *probe) ([]outcome, []time.Duration) {
	var outs []outcome
	var turns []time.Duration
	for _, i := range perm {
		c := r.checks[i]
		collect()
		var pr *probe
		if p != nil {
			pr = p(c)
		}
		t := time.Now()
		outs = append(outs, r.run(ctx, c, addr, pr))
		turns = append(turns, time.Since(t))
	}
	return outs, turns
}

// measure is the untraced run: a closed loop with one check in flight
// that repeats seed-permuted passes until the time is up. The first pass
// always completes, so every check has at least one sample. Before each
// check, its set-up alone is timed setupSamples more times, so set-up is
// sampled all through the run rather than in one burst.
func (r *runner) measure(ctx context.Context, seed uint64, seconds time.Duration) (*report, error) {
	rp := newReport()
	t := time.Now()
	addr, stop, err := r.startWorker()
	workerStart := time.Since(t)
	if err != nil {
		return nil, err
	}
	defer stop()

	rng := rand.New(rand.NewPCG(seed, 0x76657264696374))
	id := newIdentity()
	n := len(r.checks)
	turns := make([][]float64, n)
	verdicts := make([][]float64, n)
	setups := make([][]float64, n)
	var all []float64
	start := time.Now()
	deadline := start.Add(seconds)
	passes := 0
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		for _, i := range rng.Perm(n) {
			if passes > 0 && time.Now().After(deadline) {
				break
			}
			c := r.checks[i]
			collect()
			for range setupSamples {
				d, err := r.setupOnly(c, addr)
				if err != nil {
					return nil, err
				}
				setups[i] = append(setups[i], d.Seconds())
			}
			t := time.Now()
			o := r.run(ctx, c, addr, nil)
			turn := time.Since(t)
			rp.tally(o)
			if r.w.deterministic {
				rp.verify(id, o)
			}
			turns[i] = append(turns[i], turn.Seconds())
			verdicts[i] = append(verdicts[i], o.verdict.Seconds())
			setups[i] = append(setups[i], o.setup().Seconds())
			all = append(all, o.verdict.Seconds())
		}
	}
	phase := time.Since(start)

	// A pass at the run's typical speed: each check at its low median,
	// which for a check run twice is the faster run, so one run slowed by
	// a busy machine does not set the figure.
	var passTime, setup float64
	perCheck := make([]float64, n)
	for i := range r.checks {
		passTime += medianLow(turns[i])
		perCheck[i] = medianLow(verdicts[i])
		setup += medianLow(setups[i])
	}
	setup += workerStart.Seconds()
	rp.set("checks_per_s", "1/s", float64(n)/passTime)
	rp.set("verdict_s.p50", "s", harrellDavis(perCheck, 0.5))
	rp.set("setup_s", "s", setup)
	rp.set("peak_rss_mb", "MB", processPeakMB())

	rp.linef("workload %s: %d checks per pass, %d checks in %.1fs of check phase (%d passes begun), seed %d",
		r.w.name, n, rp.attempted, phase.Seconds(), passes, seed)
	rp.linef("  %-16s %10.4f 1/s  %d checks per pass, each at its low median turnaround over %d-%d runs (raw: %.4f 1/s)",
		"checks_per_s", float64(n)/passTime, n, minLen(turns), maxLen(turns), float64(rp.attempted)/phase.Seconds())
	rp.linef("  %-16s %10.4f s    median (Harrell-Davis) over the %d checks of each check's low median Session.Check time (plain median %.4f s)",
		"verdict_s.p50", harrellDavis(perCheck, 0.5), n, median(perCheck))
	if len(all) >= 100 {
		rp.linef("  %-16s %10.4f s    over all %d checks", "verdict_s.p90", quantile(all, 0.9), len(all))
	} else {
		rp.linef("  %-16s %10s      not reported: %d checks, fewer than 100", "verdict_s.p90", "-", len(all))
	}
	rp.linef("  %-16s %10.4f s    a pass's set-up, each check at its low median over %d-%d samples",
		"setup_s", setup, minLen(setups), maxLen(setups))
	rp.linef("  %-16s %10.1f MB   process high-water RSS (VmHWM)", "peak_rss_mb", processPeakMB())
	rp.linef("  %-16s %10.4f      %d of %d checks failed", "failed_frac", float64(rp.failed)/float64(rp.attempted), rp.failed, rp.attempted)
	return rp, nil
}

// startWorker starts the remote-wire worker; on local workloads it
// returns an empty address.
func (r *runner) startWorker() (addr string, stop func(), err error) {
	if !r.w.remote {
		return "", func() {}, nil
	}
	wk, err := startWorker()
	if err != nil {
		return "", nil, err
	}
	return wk.addr(), wk.stop, nil
}

// median of xs (the mean of the middle two for even lengths).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianLow of xs: the middle value, or for even lengths the lower of the
// two middle values.
func medianLow(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// harrellDavis estimates the q-quantile of xs as a Beta-weighted average
// of all its order statistics (Harrell and Davis, 1982). A plain median
// is one order statistic; where the values near the middle are few and
// noisy, as the checks of a pass are, it jumps with whichever one ran
// slow, while this estimate moves with all of its neighbours.
func harrellDavis(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := float64(len(s))
	a, b := q*(n+1), (1-q)*(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	density := func(t float64) float64 {
		if t <= 0 || t >= 1 {
			return 0
		}
		return math.Exp(lab - la - lb + (a-1)*math.Log(t) + (b-1)*math.Log(1-t))
	}
	// The weight of the i-th order statistic is the Beta(a, b) mass on
	// [(i-1)/n, i/n], integrated by Simpson's rule.
	const steps = 32
	var est, total float64
	for i, x := range s {
		lo, hi := float64(i)/n, float64(i+1)/n
		h := (hi - lo) / steps
		w := density(lo) + density(hi)
		for j := 1; j < steps; j++ {
			w += float64(2+2*(j%2)) * density(lo+float64(j)*h)
		}
		w *= h / 3
		est += w * x
		total += w
	}
	return est / total
}

// quantile of xs by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func minLen(xss [][]float64) int {
	m := len(xss[0])
	for _, xs := range xss {
		m = min(m, len(xs))
	}
	return m
}

func maxLen(xss [][]float64) int {
	m := 0
	for _, xs := range xss {
		m = max(m, len(xs))
	}
	return m
}
