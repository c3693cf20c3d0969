package bench

import (
	"math/rand"

	"repro/internal/circuit"
)

// RandomSequential builds a small random sequential circuit: one to
// three inputs, two to five latches with random initial values, 10 to 34
// AND gates over random (possibly negated) earlier signals, random latch
// next-state functions, and one property whose bad signal is the AND of
// two random signals (biased toward rare). The metamorphic tests use it:
// no decision ordering and no engine shape may change the verdict or the
// depth on any of them.
func RandomSequential(rng *rand.Rand) *circuit.Circuit {
	c := circuit.New("rand")
	var pool []circuit.Signal
	for i := 0; i < rng.Intn(3)+1; i++ {
		pool = append(pool, c.Input("in"))
	}
	var latches []circuit.Signal
	for i := 0; i < rng.Intn(4)+2; i++ {
		l := c.Latch("l", rng.Intn(2) == 0)
		latches = append(latches, l)
		pool = append(pool, l)
	}
	for i := 0; i < rng.Intn(25)+10; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		s := c.And(a, b)
		if !s.IsConst() {
			pool = append(pool, s)
		}
	}
	for _, l := range latches {
		c.SetNext(l, pool[rng.Intn(len(pool))])
	}
	c.AddProperty("bad", c.And(pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
	return c
}
