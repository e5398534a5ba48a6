package policy

import (
	"math"
	"testing"
)

// The paper's Fig. 2 calibration: a script-grade solver at 27 000 H/s
// behind a 4 × 7.75 ms round trip, plus 0.2 ms for issue and verify.
const (
	fig2HashRate  = 27000
	fig2NetworkMS = 4*7.75 + 0.2
)

// fig2MedianMS is the median end-to-end latency of one d-difficult
// request: the median of the Geometric(2^−d) attempt count, at the
// calibrated hash rate, on top of the fixed network and service time.
func fig2MedianMS(d int) float64 {
	hashes := math.Ceil(-math.Ln2 / math.Log1p(-math.Exp2(-float64(d))))
	return fig2NetworkMS + 1000*hashes/fig2HashRate
}

// TestFig2LatencyCalibration pins the paper's Fig. 2 computed
// analytically from each policy's difficulty table: both linear policies
// start at the ≈ 31 ms network floor, Policy 1 stays below 150 ms at R=10
// while Policy 2 reaches the high hundreds of milliseconds, and both
// curves rise with the reputation score.
func TestFig2LatencyCalibration(t *testing.T) {
	p1, p2 := Policy1(), Policy2()
	curve := func(p Policy) []float64 {
		ms := make([]float64, 11)
		for r := range ms {
			ms[r] = fig2MedianMS(p.Difficulty(float64(r)))
		}
		return ms
	}
	c1, c2 := curve(p1), curve(p2)
	for name, c := range map[string][]float64{"policy1": c1, "policy2": c2} {
		if c[0] < 29 || c[0] > 40 {
			t.Errorf("%s at R=0 = %.1f ms, want the ≈31 ms anchor in [29, 40]", name, c[0])
		}
		for r := 1; r < len(c); r++ {
			if c[r] < c[r-1] {
				t.Errorf("%s latency falls from R=%d (%.1f ms) to R=%d (%.1f ms)", name, r-1, c[r-1], r, c[r])
			}
		}
	}
	if c1[10] >= 150 {
		t.Errorf("policy1 at R=10 = %.1f ms, paper shows < 150 ms", c1[10])
	}
	if c2[10] < 500 || c2[10] > 1400 {
		t.Errorf("policy2 at R=10 = %.1f ms, paper shows ≈ 900 ms (want [500, 1400])", c2[10])
	}
}

// TestPolicy3EpsilonRaisesExpectedWork pins the paper's ε argument at
// R=10: widening the error range draws difficulties symmetrically around
// dᵢ, but solve work grows as 2^d, so the mean work a client pays at ε=4
// exceeds the work at ε=0.
func TestPolicy3EpsilonRaisesExpectedWork(t *testing.T) {
	meanWork := func(eps float64) float64 {
		p, err := Policy3(WithEpsilon(eps), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		const draws = 4000
		sum := 0.0
		for i := 0; i < draws; i++ {
			sum += math.Exp2(float64(p.Difficulty(10)))
		}
		return sum / draws
	}
	w0, w4 := meanWork(0), meanWork(4)
	if !(w4 > w0) {
		t.Errorf("mean work at ε=4 (%.0f hashes) not above ε=0 (%.0f hashes) at R=10", w4, w0)
	}
}
