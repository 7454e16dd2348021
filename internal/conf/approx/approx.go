// Package approx implements MayBMS's aconf(ε,δ): the Karp-Luby
// unbiased estimator for DNF probability, adapted to conditions over
// finite independent random variables, driven by the
// Dagum-Karp-Luby-Ross "optimal algorithm for Monte Carlo estimation"
// (SICOMP 29(5), 2000). The AA algorithm uses sequential analysis to
// determine how many Karp-Luby trials achieve the requested
// (ε,δ)-guarantee: P(|p̂ − p| > ε·p) < δ.
package approx

import (
	"math"
	"math/rand"
	"sort"

	"maybms/internal/lineage"
	"maybms/internal/ws"
)

// Estimator draws Karp-Luby trials for a fixed DNF. Each trial is a
// Bernoulli outcome whose mean is P(DNF)/S where S is the sum of
// clause probabilities, so S·mean estimates P(DNF).
//
// The DNF's variables are renumbered to dense local indices once, at
// construction, so a trial's assignment lives in flat slices stamped
// with the trial's epoch — no map, and no clearing between trials.
type Estimator struct {
	rng  *rand.Rand
	S    float64   // sum of clause probabilities
	cum  []float64 // cumulative clause probabilities for sampling
	taut bool      // the DNF contains the empty clause

	// Read-only tables, shared by forks. Clause i is
	// lits[start[i]:start[i+1]]; local variable x's cumulative
	// alternative probabilities are alt[altStart[x]:altStart[x+1]].
	lits     []localLit
	start    []int32
	alt      []float64
	altStart []int32

	// Scratch assignment of the current trial: slot x holds a drawn
	// value iff its stamp equals epoch.
	slots []slot
	epoch uint32

	// cancel, when non-nil, is polled between trial blocks (every
	// cancelInterval trials) so a killed query aborts estimation
	// instead of sampling to convergence. It returns the typed
	// cancellation error once the query is killed.
	cancel func() error

	// Trials counts Karp-Luby invocations, for the experiments.
	Trials int
}

// localLit is a literal over a dense local variable index.
type localLit struct {
	x   int32
	val int
}

// slot is one variable's value in the current trial.
type slot struct {
	val   int
	stamp uint32
}

// cancelInterval is how many trials run between cancellation polls: a
// poll is one atomic load, so the interval only bounds kill latency
// (a few thousand trials are microseconds on typical lineage).
const cancelInterval = 4096

// checkCancel polls the cancellation hook, if any.
func (e *Estimator) checkCancel() error {
	if e.cancel == nil {
		return nil
	}
	return e.cancel()
}

// NewEstimator prepares a Karp-Luby estimator for d. rng may be nil,
// in which case a fixed-seed source is used (deterministic runs).
func NewEstimator(d lineage.DNF, src ws.ProbSource, rng *rand.Rand) *Estimator {
	return newEstimator(d.Simplify(), src, rng)
}

// newEstimator is NewEstimator over an already simplified DNF.
func newEstimator(d lineage.DNF, src ws.ProbSource, rng *rand.Rand) *Estimator {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	e := &Estimator{rng: rng, taut: d.HasEmptyClause(), cum: make([]float64, len(d)), start: make([]int32, 1, len(d)+1)}
	s := 0.0
	for i, c := range d {
		s += c.Prob(src)
		e.cum[i] = s
	}
	e.S = s

	local := map[ws.VarID]int32{}
	e.altStart = []int32{0}
	for _, c := range d {
		for _, l := range c {
			x, ok := local[l.Var]
			if !ok {
				x = int32(len(local))
				local[l.Var] = x
				// Summed in alternative order, exactly as a per-draw
				// scan would, so the cut points are the same floats.
				acc := 0.0
				for val := 1; val <= src.DomainSize(l.Var); val++ {
					acc += src.Prob(l.Var, val)
					e.alt = append(e.alt, acc)
				}
				e.altStart = append(e.altStart, int32(len(e.alt)))
			}
			e.lits = append(e.lits, localLit{x: x, val: l.Val})
		}
		e.start = append(e.start, int32(len(e.lits)))
	}
	e.slots = make([]slot, len(local))
	return e
}

// Sample runs one Karp-Luby trial and reports its Bernoulli outcome.
// The trial picks a clause i with probability P(Cᵢ)/S, samples a world
// θ conditioned on Cᵢ, and succeeds iff i is the first clause θ
// satisfies. E[outcome] = P(DNF)/S.
//
// The world is sampled lazily: a variable outside Cᵢ is drawn (and
// memoised) only when an earlier clause's check first reads it, in a
// deterministic order — clauses in DNF order, literals in clause
// order. Variables no check reads are never drawn; marginalising them
// out leaves the trial's distribution untouched, while the cost drops
// from O(|vars|) per trial to the expected scan length before a
// satisfied clause — the difference between minutes and milliseconds
// on repair-key lineage with thousands of blocks.
func (e *Estimator) Sample() bool {
	e.Trials++
	// Pick clause i ∝ P(Cᵢ).
	u := e.rng.Float64() * e.S
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.cum) {
		i = len(e.cum) - 1
	}
	e.epoch++
	if e.epoch == 0 {
		// Stamps wrapped: forget every stale value once.
		clear(e.slots)
		e.epoch = 1
	}
	for _, l := range e.lits[e.start[i]:e.start[i+1]] {
		e.slots[l.x] = slot{val: l.val, stamp: e.epoch}
	}
	// Success iff no earlier clause is satisfied.
	for j := 0; j < i; j++ {
		sat := true
		for _, l := range e.lits[e.start[j]:e.start[j+1]] {
			s := &e.slots[l.x]
			if s.stamp != e.epoch {
				*s = slot{val: e.sampleVar(l.x), stamp: e.epoch}
			}
			if s.val != l.val {
				sat = false
				break
			}
		}
		if sat {
			return false
		}
	}
	return true
}

// sampleVar draws an alternative of local variable x from its marginal
// distribution. Probability deficits map to the implicit extra
// alternative n+1, which no literal mentions.
func (e *Estimator) sampleVar(x int32) int {
	u := e.rng.Float64()
	alt := e.alt[e.altStart[x]:e.altStart[x+1]]
	for k, acc := range alt {
		if u < acc {
			return k + 1
		}
	}
	return len(alt) + 1
}

// Estimate runs exactly n trials and returns S·(successes/n), the
// plain Karp-Luby estimate used by the fixed-budget baselines.
func (e *Estimator) Estimate(n int) float64 {
	if e.S == 0 || len(e.cum) == 0 {
		return 0
	}
	if e.taut {
		return 1
	}
	succ := 0
	for i := 0; i < n; i++ {
		if e.Sample() {
			succ++
		}
	}
	return e.S * float64(succ) / float64(n)
}

// SampleStats reports the sampling effort one aconf evaluation spent:
// the total Karp-Luby trial count across the AA algorithm's three
// steps, and the achieved relative standard error of the final
// estimate (√(ρ̂/N)/μ̂ — an observability figure, not the (ε,δ)
// guarantee itself). Degenerate inputs (empty DNF, tautology, zero
// clause mass) short-circuit without sampling and report zero effort.
type SampleStats struct {
	Trials int64
	RelErr float64
}

// Conf computes an (ε,δ)-approximation of P(d) using the AA algorithm:
// the returned p̂ deviates from p by more than ε·p with probability
// less than δ.
func Conf(d lineage.DNF, src ws.ProbSource, eps, delta float64, rng *rand.Rand) (float64, error) {
	p, _, err := ConfStats(d, src, eps, delta, rng, nil)
	return p, err
}

// ConfStats is Conf reporting its sampling effort alongside the
// estimate. cancel, when non-nil, is polled between trial blocks and
// aborts estimation with its error (cooperative query cancellation).
func ConfStats(d lineage.DNF, src ws.ProbSource, eps, delta float64, rng *rand.Rand, cancel func() error) (float64, SampleStats, error) {
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
	e := newEstimator(d, src, rng)
	e.cancel = cancel
	if e.S == 0 {
		return 0, SampleStats{}, nil
	}
	mean, st, err := e.aa(eps, delta)
	if err != nil {
		return 0, SampleStats{}, err
	}
	return e.S * mean, st, nil
}

// AA is the Dagum-Karp-Luby-Ross approximation algorithm AA estimating
// the mean μ of the Bernoulli trial stream in three steps: a stopping
// rule for a rough estimate, a variance estimate, and a final run
// sized by max(variance, ε·μ̂).
func (e *Estimator) AA(eps, delta float64) float64 {
	mean, _, _ := e.aa(eps, delta)
	return mean
}

// aa runs AA and reports the sampling effort. It aborts with the
// cancellation error when the estimator's cancel hook fires.
func (e *Estimator) aa(eps, delta float64) (float64, SampleStats, error) {
	const lambda = math.E - 2 // λ from the DKLR paper
	// Clamp ε to the Bernoulli regime: relative error below machine
	// noise would demand absurd trial counts.
	ups := 4 * lambda * math.Log(2/delta) / (eps * eps)

	// Step 1: stopping-rule algorithm with Υ₁ = 1+(1+ε)Υ.
	ups1 := 1 + (1+eps)*ups
	sum := 0.0
	n := 0
	for sum < ups1 {
		if n%cancelInterval == 0 {
			if err := e.checkCancel(); err != nil {
				return 0, SampleStats{}, err
			}
		}
		if e.Sample() {
			sum++
		}
		n++
	}
	muHat := ups1 / float64(n)

	// Step 2: estimate the variance ρ̂ = max(S/N, ε·μ̂) from N trial
	// pairs, N = Υ₂·ε/μ̂ with Υ₂ = 2(1+√ε)(1+2√ε)(1+ln(3/2)/ln(2/δ))Υ.
	ups2 := 2 * (1 + math.Sqrt(eps)) * (1 + 2*math.Sqrt(eps)) *
		(1 + math.Log(1.5)/math.Log(2/delta)) * ups
	nPairs := int(math.Ceil(ups2 * eps / muHat))
	if nPairs < 1 {
		nPairs = 1
	}
	s2 := 0.0
	for i := 0; i < nPairs; i++ {
		if i%(cancelInterval/2) == 0 {
			if err := e.checkCancel(); err != nil {
				return 0, SampleStats{}, err
			}
		}
		a, b := 0.0, 0.0
		if e.Sample() {
			a = 1
		}
		if e.Sample() {
			b = 1
		}
		s2 += (a - b) * (a - b) / 2
	}
	rhoHat := s2 / float64(nPairs)
	if eMu := eps * muHat; rhoHat < eMu {
		rhoHat = eMu
	}

	// Step 3: final estimate with N = Υ₂·ρ̂/μ̂².
	nFinal := int(math.Ceil(ups2 * rhoHat / (muHat * muHat)))
	if nFinal < 1 {
		nFinal = 1
	}
	succ := 0
	for i := 0; i < nFinal; i++ {
		if i%cancelInterval == 0 {
			if err := e.checkCancel(); err != nil {
				return 0, SampleStats{}, err
			}
		}
		if e.Sample() {
			succ++
		}
	}
	st := SampleStats{
		Trials: int64(n + 2*nPairs + nFinal),
		RelErr: math.Sqrt(rhoHat/float64(nFinal)) / muHat,
	}
	return float64(succ) / float64(nFinal), st, nil
}
