package aiger

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/engine"
)

// check runs the default BMC session (dynamic ordering) to the depth.
func check(t *testing.T, c *circuit.Circuit, depth int) *engine.Result {
	t.Helper()
	sess, err := engine.New(c, 0, engine.WithBudgets(depth, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Check(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSuiteRoundTripStructure writes every benchmark model to AIGER text
// and reads it back, checking the structural counts survive — this is the
// path cmd/benchgen users rely on.
func TestSuiteRoundTripStructure(t *testing.T) {
	for _, m := range bench.Suite() {
		c := m.Build()
		s, err := WriteString(c)
		if err != nil {
			t.Fatalf("%s: write: %v", m.Name, err)
		}
		back, err := ReadString(s)
		if err != nil {
			t.Fatalf("%s: read: %v", m.Name, err)
		}
		if back.NumInputs() != c.NumInputs() || back.NumLatches() != c.NumLatches() {
			t.Errorf("%s: I/L changed: %d/%d -> %d/%d", m.Name,
				c.NumInputs(), c.NumLatches(), back.NumInputs(), back.NumLatches())
		}
		if len(back.Properties()) != len(c.Properties()) {
			t.Errorf("%s: property count changed", m.Name)
		}
		if back.NumAnds() > c.NumAnds() {
			t.Errorf("%s: AND count grew on round trip (%d -> %d)", m.Name, c.NumAnds(), back.NumAnds())
		}
	}
}

// TestSuiteRoundTripVerdicts re-runs BMC on round-tripped circuits for a
// sample of models and checks the verdicts (and counter-example depths)
// survive serialization.
func TestSuiteRoundTripVerdicts(t *testing.T) {
	names := []string{"cnt_w4_t9", "tlc_bug", "twin_w8", "pipe_s5_bug", "arb_5_bug"}
	for _, name := range names {
		m, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		depth := m.MaxDepth
		if depth > 9 {
			depth = 9
		}
		s, err := WriteString(m.Build())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ReadString(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		orig := check(t, m.Build(), depth)
		rt := check(t, back, depth)
		if orig.Verdict != rt.Verdict || orig.K != rt.K {
			t.Errorf("%s: verdict changed on round trip: %v@%d -> %v@%d",
				name, orig.Verdict, orig.K, rt.Verdict, rt.K)
		}
	}
}

// TestParseDeterministic: parsing one file twice must number the circuit
// the same way, so the written text and the search (every conflict) are
// identical from run to run.
func TestParseDeterministic(t *testing.T) {
	for _, name := range []string{"mix_w5", "add_w4", "pipe_s5_bug"} {
		m, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		text, err := WriteString(m.Build())
		if err != nil {
			t.Fatal(err)
		}
		var written [2]string
		var res [2]*engine.Result
		for i := range written {
			c, err := ReadString(text)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if written[i], err = WriteString(c); err != nil {
				t.Fatal(err)
			}
			res[i] = check(t, c, 3)
		}
		if written[0] != written[1] {
			t.Errorf("%s: two parses of one file write different text", name)
		}
		if res[0].Total.Conflicts != res[1].Total.Conflicts || res[0].Total.Decisions != res[1].Total.Decisions {
			t.Errorf("%s: two parses of one file search differently: %d/%d vs %d/%d conflicts/decisions", name,
				res[0].Total.Conflicts, res[0].Total.Decisions, res[1].Total.Conflicts, res[1].Total.Decisions)
		}
	}
}

// TestWrittenHeaderMatchesCounts sanity-checks the emitted header line
// against the model's structure for the whole suite.
func TestWrittenHeaderMatchesCounts(t *testing.T) {
	for _, m := range bench.Suite() {
		c := m.Build()
		s, err := WriteString(c)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		line := s
		if i := strings.IndexByte(s, '\n'); i > 0 {
			line = s[:i]
		}
		if !strings.HasPrefix(line, "aag ") {
			t.Fatalf("%s: bad header %q", m.Name, line)
		}
	}
}
