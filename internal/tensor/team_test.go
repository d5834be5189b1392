package tensor

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"harvest/internal/stats"
)

// teamCase is one product or attention call with its answer on a
// single worker: run computes it afresh, on whatever workers it gets.
type teamCase struct {
	name string
	run  func() []float32
	want []float32
}

// teamCases are a float linear with a fused norm, an int8 linear and a
// multi-head attention call, each large enough to run in several bands
// or tasks at GOMAXPROCS 2.
func teamCases() []teamCase {
	r := stats.NewRNG(71)
	const m, n, k = 130, 96, 200
	a, bt, bias := randTensor(r, m, k).Data, randTensor(r, n, k).Data, randTensor(r, n).Data
	gamma, beta := randTensor(r, n).Data, randTensor(r, n).Data
	_, ws := randQ7Codes(r, 1, n, k)
	pw := PackQ7Weights(ws, n, k)
	scales := randTensor(r, n).Data
	const batch, seq, heads, dh = 2, 129, 2, 32
	qkv := randTensor(r, batch*seq, 3*heads*dh).Data
	cases := []teamCase{
		{name: "fp32 linear", run: func() []float32 {
			c, dst := make([]float32, m*n), make([]float32, m*n)
			GemmTransBEpilogue(c, a, bt, m, n, k, false,
				Epilogue{Bias: bias, GELU: true, Norm: Norm{Dst: dst, Gamma: gamma, Beta: beta, Eps: 1e-6}})
			return append(c, dst...)
		}},
		{name: "int8 linear", run: func() []float32 {
			c := make([]float32, m*n)
			Q7LinearEpilogue(c, a, m, k, pw, scales, false, Epilogue{Bias: bias})
			return c
		}},
		{name: "attention", run: func() []float32 {
			out := make([]float32, batch*seq*heads*dh)
			MultiHeadAttention(out, qkv, batch, seq, heads, dh)
			return out
		}},
	}
	WithWorkers(1, func() {
		for i := range cases {
			cases[i].want = cases[i].run()
		}
	})
	return cases
}

// TestTeamConcurrentCallers: four goroutines run products and attention
// calls at once for about a second, contending for the one board, and
// every result equals its single-worker answer bit for bit (run under
// -race by make check).
func TestTeamConcurrentCallers(t *testing.T) {
	cases := teamCases()
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; time.Now().Before(deadline); i++ {
				c := cases[i%len(cases)]
				if got := c.run(); !slices.Equal(bitsOf(got), bitsOf(c.want)) {
					t.Errorf("goroutine %d: %s differs from its single-worker answer", g, c.name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func bitsOf(x []float32) []uint32 {
	out := make([]uint32, len(x))
	for i, v := range x {
		out[i] = math.Float32bits(v)
	}
	return out
}

// TestTeamProductInsideTask: a task runs while its job holds the board,
// so a product it starts finds the board taken and must run every one
// of its own tasks on the caller. Holding the board here, each case
// completes with its single-worker answer.
func TestTeamProductInsideTask(t *testing.T) {
	cases := teamCases()
	var outer job
	outer.claim.Store(1 << 32) // posted, every task claimed
	helpers.post(&outer, 1)
	defer helpers.board.CompareAndSwap(&outer, nil)
	if helpers.board.Load() != &outer {
		t.Skip("the board is held by another job")
	}
	for _, c := range cases {
		requireSameFloats(t, c.name+" inside a task", c.run(), c.want)
	}
}

// TestTeamGoroutinesBounded: the team starts its helpers once; 1,000
// products and attention calls start no goroutine.
func TestTeamGoroutinesBounded(t *testing.T) {
	cases := teamCases()
	for _, c := range cases {
		c.run()
	}
	before := runtime.NumGoroutine()
	for i := range 1000 {
		cases[i%len(cases)].run()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after 1,000 products, %d before", after, before)
	}
}

// TestTeamHelpersPark: once the team is idle, every helper parks soon
// after polling for teamSpin.
func TestTeamHelpersPark(t *testing.T) {
	for _, c := range teamCases() {
		c.run()
	}
	start := time.Now()
	for {
		started, parked := TeamState()
		if parked == started {
			t.Logf("%d helpers parked %v after the last job (spin bound %v)", parked, time.Since(start), teamSpin)
			return
		}
		if time.Since(start) > time.Second {
			t.Fatalf("%d of %d helpers parked a second after the last job (spin bound %v)", parked, started, teamSpin)
		}
		time.Sleep(teamSpin / 2)
	}
}
