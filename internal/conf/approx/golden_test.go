package approx

import (
	"math"
	"math/rand"
	"testing"

	"maybms/internal/lineage"
	"maybms/internal/ws"
)

// goldenCase builds the i-th fixed aconf fixture: a store of 6-24
// variables mixing boolean, three-way and deficit domains (alternative
// probabilities summing to less than 1), and a DNF of 2-40 clauses of
// width 1-3 drawn over those shared variables.
func goldenCase(i int) (lineage.DNF, *ws.Store) {
	r := rand.New(rand.NewSource(int64(7000 + i)))
	st := ws.NewStore()
	vars := make([]ws.VarID, 6+r.Intn(19))
	for j := range vars {
		var probs []float64
		switch r.Intn(3) {
		case 0:
			p := 0.1 + 0.8*r.Float64()
			probs = []float64{p, 1 - p}
		case 1:
			probs = []float64{0.2, 0.3, 0.5}
		default:
			probs = []float64{0.15 + 0.3*r.Float64(), 0.1 + 0.2*r.Float64()}
		}
		v, err := st.NewVar(probs)
		if err != nil {
			panic(err)
		}
		vars[j] = v
	}
	var d lineage.DNF
	for n := 2 + r.Intn(39); len(d) < n; {
		lits := make([]lineage.Lit, 1+r.Intn(3))
		for j := range lits {
			v := vars[r.Intn(len(vars))]
			lits[j] = lineage.Lit{Var: v, Val: 1 + r.Intn(st.DomainSize(v))}
		}
		if c, ok := lineage.NewCond(lits...); ok {
			d = append(d, c)
		}
	}
	return d, st
}

// aconfGolden pins, per goldenCase, the float64 bits of the aconf
// estimate and its Karp-Luby trial count: seeded* for ConfSeededStats
// (seed 1000+i; identical at every worker count), serial* for
// ConfStats (rand source 2000+i). Recorded from the map-based sampler
// at commit d0f352dc4b7324c3c6350aa9c347377473bd6608, before the dense
// estimator; they must never be re-pinned, since a changed value means
// the sampler's draws changed.
var aconfGolden = []struct {
	seededBits   uint64
	seededTrials int64
	serialBits   uint64
	serialTrials int64
}{
	{0x3ff00eb9dd6549e1, 25932, 0x3fef1ebd0ac4a2ab, 26425},
	{0x3fefc57d9d5e81fb, 16976, 0x3ff01c5559d7aa24, 16407},
	{0x3fefe2ee7bc3ddaf, 19544, 0x3fefecdde3a27321, 19941},
	{0x3fefbfb1fb9ecced, 26308, 0x3fef34c2c6e01bb5, 30514},
	{0x3fee7ff5af469134, 9485, 0x3feec1562d04bf44, 10278},
	{0x3fef72b3a87b2dde, 11714, 0x3fefa949dd7e4d8e, 11145},
	{0x3fefb29dc9749b3a, 23868, 0x3fef891b432eef61, 24934},
	{0x3ff01e71b4bdb339, 20859, 0x3ff0000e8b3dd1c8, 21229},
	{0x3fec1a63a7d9aebc, 8851, 0x3fec230bf6030b13, 8813},
	{0x3fe93ea8a44ba43f, 8598, 0x3fe9c8349ec95709, 8385},
	{0x3fc3b8728bd1ccfc, 2685, 0x3fc3b8728bd1ccfc, 2685},
	{0x3feee6d33623b2b1, 17042, 0x3ff06d1fdafef2b6, 17786},
	{0x3fed812df2c9254d, 8420, 0x3fed42110819cddb, 8491},
	{0x3fe7c9eaaa5c8508, 2955, 0x3fe829cbcee7c549, 2946},
	{0x3fc1aedaa0fa0d2d, 2712, 0x3fc1b7ad6f003405, 2701},
	{0x3ff00f517cde5431, 22289, 0x3ff014984f4cb6c4, 24354},
	{0x3fe63ac5c365d72c, 4538, 0x3fe6777460ee1094, 4424},
	{0x3ff052e91e099c4b, 23672, 0x3feff07d428da4cd, 23125},
	{0x3ff006e81c673418, 26817, 0x3ff036f4cbc31237, 26279},
	{0x3fef0c464078ea94, 14523, 0x3fef6ceeb44ee459, 14876},
}

// TestAconfGoldenBits proves the estimator's sampling schedule is
// unchanged: same RNG draws in the same order, hence the same
// estimates bit for bit and the same trial counts.
func TestAconfGoldenBits(t *testing.T) {
	const eps, delta = 0.1, 0.05
	if len(aconfGolden) != 20 {
		t.Fatalf("%d golden rows, want 20", len(aconfGolden))
	}
	for i, g := range aconfGolden {
		d, st := goldenCase(i)
		for _, workers := range []int{1, 4} {
			p, ss, err := ConfSeededStats(d, st, eps, delta, int64(1000+i), workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(p) != g.seededBits || ss.Trials != g.seededTrials {
				t.Errorf("case %d workers=%d: ConfSeededStats = %v (%#x), %d trials; want %v (%#x), %d trials",
					i, workers, p, math.Float64bits(p), ss.Trials, math.Float64frombits(g.seededBits), g.seededBits, g.seededTrials)
			}
		}
		p, ss, err := ConfStats(d, st, eps, delta, rand.New(rand.NewSource(int64(2000+i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(p) != g.serialBits || ss.Trials != g.serialTrials {
			t.Errorf("case %d: ConfStats = %v (%#x), %d trials; want %v (%#x), %d trials",
				i, p, math.Float64bits(p), ss.Trials, math.Float64frombits(g.serialBits), g.serialBits, g.serialTrials)
		}
	}
}
