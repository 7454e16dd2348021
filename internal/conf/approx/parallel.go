package approx

// Parallel Karp-Luby sampling. The trial stream is partitioned into a
// fixed number of strands; strand s owns every trial whose global
// index j has j % strands == s, and draws from its own RNG seeded
// deterministically from (root seed, algorithm step, strand). Trial
// outcomes are therefore a pure function of the root seed — how many
// goroutines compute them is invisible — so aconf returns the same
// bits at every degree of parallelism, including 1. This is also what
// removes the locked shared rand source from the hot path: workers
// never contend on an RNG, because no RNG is shared.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"maybms/internal/lineage"
	"maybms/internal/ws"
)

// strands is the fixed count of independent trial sub-streams. It is
// part of the sampling schedule, not a tuning knob: changing it
// changes results. 16 keeps up to 16 workers busy while staying cheap
// to seed per step.
const strands = 16

// step1Block is how many trials the stopping rule evaluates per
// parallel round; a multiple of strands so strand assignment is
// position-independent across blocks.
const step1Block = 4096

// splitmix64 is the SplitMix64 finaliser: cheap, well-mixed, stable
// across platforms.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// strandRngs builds the per-strand RNGs of one algorithm step.
func strandRngs(seed int64, step int) []*rand.Rand {
	rngs := make([]*rand.Rand, strands)
	for s := 0; s < strands; s++ {
		rngs[s] = rand.New(rand.NewSource(int64(splitmix64(splitmix64(uint64(seed)) + uint64(step)*strands + uint64(s)))))
	}
	return rngs
}

// fork returns an estimator sharing this one's read-only tables
// (clause cumulative probabilities, dense clause literals, cumulative
// alternative probabilities) with its own RNG and scratch assignment,
// so strands sample concurrently without sharing mutable state.
func (e *Estimator) fork(rng *rand.Rand) *Estimator {
	f := *e
	f.rng = rng
	f.slots = make([]slot, len(e.slots))
	f.epoch = 0
	f.Trials = 0
	return &f
}

// forEachStrand runs fn(s) once per strand on up to workers
// goroutines. Strands are independent, so the strand-to-worker
// assignment cannot affect outcomes.
func forEachStrand(workers int, fn func(s int)) {
	if workers > strands {
		workers = strands
	}
	if workers <= 1 {
		for s := 0; s < strands; s++ {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < strands; s += workers {
				fn(s)
			}
		}(w)
	}
	wg.Wait()
}

// fillOutcomes computes out[j] for every j in [0, len(out)) using
// strand j % strands, advancing each strand's estimator in its own
// deterministic order. A fired cancel hook makes strands bail early,
// leaving out partially filled — callers must check the hook after the
// fill and discard the array on cancellation, so the partial contents
// never reach a result.
func fillOutcomes(es []*Estimator, out []bool, workers int) {
	forEachStrand(workers, func(s int) {
		done := 0
		for j := s; j < len(out); j += strands {
			if done%1024 == 0 && es[s].checkCancel() != nil {
				return
			}
			out[j] = es[s].Sample()
			done++
		}
	})
}

// ConfSeeded computes an (ε,δ)-approximation of P(d) — the same DKLR
// AA algorithm as Conf — over the strand-partitioned trial schedule.
// The result is a deterministic function of (d, src, eps, delta,
// seed); workers only sets how many goroutines evaluate the schedule.
func ConfSeeded(d lineage.DNF, src ws.ProbSource, eps, delta float64, seed int64, workers int) (float64, error) {
	p, _, err := ConfSeededStats(d, src, eps, delta, seed, workers, nil)
	return p, err
}

// ConfSeededStats is ConfSeeded reporting its sampling effort
// alongside the estimate. The stats, like the estimate, are a pure
// function of (d, src, eps, delta, seed) — workers cannot change them.
// cancel, when non-nil, is polled between trial blocks and aborts
// estimation with its error (cooperative query cancellation); it never
// affects the result of a run it does not abort.
func ConfSeededStats(d lineage.DNF, src ws.ProbSource, eps, delta float64, seed int64, workers int, cancel func() error) (float64, SampleStats, error) {
	if err := checkEpsDelta(eps, delta); err != nil {
		return 0, SampleStats{}, err
	}
	d = d.Simplify()
	if len(d) == 0 {
		return 0, SampleStats{}, nil
	}
	if d.HasEmptyClause() {
		return 1, SampleStats{}, nil
	}
	base := newEstimator(d, src, rand.New(rand.NewSource(seed)))
	base.cancel = cancel
	if base.S == 0 {
		return 0, SampleStats{}, nil
	}
	mean, st, err := base.aaStranded(eps, delta, seed, workers)
	if err != nil {
		return 0, SampleStats{}, err
	}
	return base.S * mean, st, nil
}

// aaStranded is the DKLR AA algorithm over strand-partitioned trials:
// the same three steps as AA, with each step's trials drawn from fresh
// per-strand RNGs and evaluated by up to `workers` goroutines. It
// reports the sampling effort alongside the mean, and aborts with the
// cancellation error when the estimator's cancel hook fires.
func (e *Estimator) aaStranded(eps, delta float64, seed int64, workers int) (float64, SampleStats, error) {
	const lambda = math.E - 2
	ups := 4 * lambda * math.Log(2/delta) / (eps * eps)

	// Step 1: stopping rule — consume trials in global order until
	// ups1 successes. Blocks of outcomes are computed in parallel;
	// the (deterministic) stopping point is found by a serial scan.
	ups1 := 1 + (1+eps)*ups
	es := e.forkStrands(seed, 1)
	out := make([]bool, step1Block)
	sum := 0.0
	n := 0
	for sum < ups1 {
		fillOutcomes(es, out, workers)
		if err := e.checkCancel(); err != nil {
			return 0, SampleStats{}, err
		}
		for j := 0; j < len(out) && sum < ups1; j++ {
			if out[j] {
				sum++
			}
			n++
		}
	}
	muHat := ups1 / float64(n)

	// Step 2: variance from N trial pairs.
	ups2 := 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(2/delta)) * ups
	nPairs := int(math.Ceil(ups2 * eps / muHat))
	if nPairs < 1 {
		nPairs = 1
	}
	es = e.forkStrands(seed, 2)
	pairOut := make([]bool, 2*nPairs)
	fillOutcomes(es, pairOut, workers)
	if err := e.checkCancel(); err != nil {
		return 0, SampleStats{}, err
	}
	s2 := 0.0
	for i := 0; i < nPairs; i++ {
		a, b := 0.0, 0.0
		if pairOut[2*i] {
			a = 1
		}
		if pairOut[2*i+1] {
			b = 1
		}
		s2 += (a - b) * (a - b) / 2
	}
	rhoHat := s2 / float64(nPairs)
	if eMu := eps * muHat; rhoHat < eMu {
		rhoHat = eMu
	}

	// Step 3: final run. Only success counts matter, so strands count
	// locally and the (commutative) sum needs no outcome array.
	nFinal := int(math.Ceil(ups2 * rhoHat / (muHat * muHat)))
	if nFinal < 1 {
		nFinal = 1
	}
	es = e.forkStrands(seed, 3)
	var succ [strands]int
	forEachStrand(workers, func(s int) {
		c := 0
		done := 0
		for j := s; j < nFinal; j += strands {
			if done%cancelInterval == 0 && es[s].checkCancel() != nil {
				return
			}
			if es[s].Sample() {
				c++
			}
			done++
		}
		succ[s] = c
	})
	if err := e.checkCancel(); err != nil {
		return 0, SampleStats{}, err
	}
	total := 0
	for _, c := range succ {
		total += c
	}
	st := SampleStats{
		Trials: int64(n + 2*nPairs + nFinal),
		RelErr: math.Sqrt(rhoHat/float64(nFinal)) / muHat,
	}
	return float64(total) / float64(nFinal), st, nil
}

// forkStrands builds the per-strand estimators of one algorithm step.
func (e *Estimator) forkStrands(seed int64, step int) []*Estimator {
	rngs := strandRngs(seed, step)
	es := make([]*Estimator, strands)
	for s := range es {
		es[s] = e.fork(rngs[s])
	}
	return es
}

// checkEpsDelta validates aconf's accuracy parameters.
func checkEpsDelta(eps, delta float64) error {
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("aconf: epsilon must be in (0,1), got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return fmt.Errorf("aconf: delta must be in (0,1), got %v", delta)
	}
	return nil
}
