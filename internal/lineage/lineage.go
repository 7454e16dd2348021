// Package lineage implements the condition language of U-relations:
// literals are assignments x↦v of finite random variables, conditions
// (world-set descriptors) are conjunctions of literals stored with each
// tuple, and events are DNFs — disjunctions of conditions — arising
// from duplicate elimination and confidence computation.
package lineage

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"maybms/internal/ws"
)

// Lit is the atomic condition x ↦ v: random variable Var takes the
// (1-based) alternative Val.
type Lit struct {
	Var ws.VarID
	Val int
}

// String renders the literal as x3->2.
func (l Lit) String() string { return fmt.Sprintf("x%d->%d", l.Var, l.Val) }

// Cond is a conjunction of literals, sorted by variable with no
// duplicate variables. The zero Cond (nil) is the empty conjunction,
// i.e. TRUE — the condition of tuples in t-certain tables.
type Cond []Lit

// TrueCond is the empty conjunction.
func TrueCond() Cond { return nil }

// NewCond builds a normalised condition from literals: sorted by
// variable, duplicates removed. It reports ok=false when two literals
// bind the same variable to different values (an inconsistent, i.e.
// unsatisfiable, condition).
func NewCond(lits ...Lit) (Cond, bool) {
	if len(lits) == 0 {
		return nil, true
	}
	cp := make(Cond, len(lits))
	copy(cp, lits)
	sort.Slice(cp, func(i, j int) bool {
		if cp[i].Var != cp[j].Var {
			return cp[i].Var < cp[j].Var
		}
		return cp[i].Val < cp[j].Val
	})
	out := cp[:1]
	for _, l := range cp[1:] {
		last := out[len(out)-1]
		if l.Var == last.Var {
			if l.Val != last.Val {
				return nil, false
			}
			continue
		}
		out = append(out, l)
	}
	return out, true
}

// And conjoins two conditions. ok=false signals inconsistency.
func (c Cond) And(o Cond) (Cond, bool) {
	if len(c) == 0 {
		return o, true
	}
	if len(o) == 0 {
		return c, true
	}
	// Merge two sorted literal lists.
	out := make(Cond, 0, len(c)+len(o))
	i, j := 0, 0
	for i < len(c) && j < len(o) {
		a, b := c[i], o[j]
		switch {
		case a.Var < b.Var:
			out = append(out, a)
			i++
		case a.Var > b.Var:
			out = append(out, b)
			j++
		default:
			if a.Val != b.Val {
				return nil, false
			}
			out = append(out, a)
			i++
			j++
		}
	}
	out = append(out, c[i:]...)
	out = append(out, o[j:]...)
	return out, true
}

// Prob returns P(c) = Π P(var=val) under independence of variables.
// The empty condition has probability 1.
func (c Cond) Prob(src ws.ProbSource) float64 {
	p := 1.0
	for _, l := range c {
		p *= src.Prob(l.Var, l.Val)
		if p == 0 {
			return 0
		}
	}
	return p
}

// Eval reports whether the condition holds under a total assignment.
// Variables absent from the assignment make the condition false.
func (c Cond) Eval(assign map[ws.VarID]int) bool {
	for _, l := range c {
		if assign[l.Var] != l.Val {
			return false
		}
	}
	return true
}

// Lookup returns the value c binds v to, if any.
func (c Cond) Lookup(v ws.VarID) (int, bool) {
	i := sort.Search(len(c), func(i int) bool { return c[i].Var >= v })
	if i < len(c) && c[i].Var == v {
		return c[i].Val, true
	}
	return 0, false
}

// Without returns c with all literals over v removed.
func (c Cond) Without(v ws.VarID) Cond {
	out := make(Cond, 0, len(c))
	for _, l := range c {
		if l.Var != v {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Subsumes reports whether c ⊆ o as literal sets, i.e. o implies c
// (c is the weaker condition). Used for DNF absorption.
func (c Cond) Subsumes(o Cond) bool {
	if len(c) > len(o) {
		return false
	}
	j := 0
	for _, l := range c {
		for j < len(o) && o[j].Var < l.Var {
			j++
		}
		if j >= len(o) || o[j] != l {
			return false
		}
		j++
	}
	return true
}

// Key returns a canonical string key for the condition.
func (c Cond) Key() string { return string(c.appendKey(nil)) }

// appendKey appends the condition's canonical key — "var:val" pairs
// joined by commas — to b without intermediate allocations.
func (c Cond) appendKey(b []byte) []byte {
	for i, l := range c {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l.Var), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(l.Val), 10)
	}
	return b
}

// String renders the condition as a conjunction.
func (c Cond) String() string {
	if len(c) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Clone returns a copy of the condition.
func (c Cond) Clone() Cond {
	if c == nil {
		return nil
	}
	out := make(Cond, len(c))
	copy(out, c)
	return out
}

// DNF is a disjunction of conditions: the event that at least one
// clause holds. An empty DNF is FALSE; a DNF containing the empty
// clause is TRUE.
type DNF []Cond

// Vars returns the sorted set of variables mentioned in the DNF.
func (d DNF) Vars() []ws.VarID {
	seen := map[ws.VarID]bool{}
	for _, c := range d {
		for _, l := range c {
			seen[l.Var] = true
		}
	}
	out := make([]ws.VarID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasEmptyClause reports whether the DNF is trivially true.
func (d DNF) HasEmptyClause() bool {
	for _, c := range d {
		if len(c) == 0 {
			return true
		}
	}
	return false
}

// Eval reports whether the event holds under a total assignment.
func (d DNF) Eval(assign map[ws.VarID]int) bool {
	for _, c := range d {
		if c.Eval(assign) {
			return true
		}
	}
	return false
}

// Simplify removes duplicate clauses and applies absorption (a clause
// subsumed by a weaker clause is dropped). The result is sorted
// canonically — by clause Key — and its clauses are fresh copies.
// Simplification preserves the event.
//
// Every clause's key is rendered once, into one buffer; sorting by key
// makes duplicates adjacent. Absorption indexes kept clauses by their
// first literal: a kept k ⊆ c has k[0] ∈ c, so c is tested only
// against kept clauses that start with one of its own literals.
func (d DNF) Simplify() DNF {
	if len(d) == 0 {
		return nil
	}
	var keys []byte
	off := make([]int, len(d)+1)
	for i, c := range d {
		keys = c.appendKey(keys)
		off[i+1] = len(keys)
	}
	key := func(i int32) []byte { return keys[off[i]:off[i+1]] }

	// Sort by key, ties by position, so the first occurrence of each
	// duplicate leads its run and is the one kept.
	order := make([]int32, len(d))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := bytes.Compare(key(a), key(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	uniq := order[:1]
	for _, i := range order[1:] {
		if !bytes.Equal(key(i), key(uniq[len(uniq)-1])) {
			uniq = append(uniq, i)
		}
	}
	if len(d[uniq[0]]) == 0 {
		// The empty clause sorts first and absorbs every other clause.
		return DNF{d[uniq[0]].Clone()}
	}

	// Absorption, shortest clauses first: a clause can be absorbed only
	// by a strictly shorter one, and every kept clause is minimal.
	byLen := slices.Clone(uniq)
	slices.SortStableFunc(byLen, func(a, b int32) int { return cmp.Compare(len(d[a]), len(d[b])) })
	kept := make([]bool, len(d))
	byFirst := make(map[Lit][]int32)
	total := 0
clauses:
	for _, i := range byLen {
		c := d[i]
		for _, l := range c {
			for _, k := range byFirst[l] {
				if d[k].Subsumes(c) {
					continue clauses
				}
			}
		}
		kept[i] = true
		byFirst[c[0]] = append(byFirst[c[0]], i)
		total += len(c)
	}

	// Copy the kept clauses, in key order, into one backing array; each
	// clause's capacity ends at its length so appends never overlap.
	lits := make([]Lit, 0, total)
	out := make(DNF, 0, len(uniq))
	for _, i := range uniq {
		if kept[i] {
			n := len(lits)
			lits = append(lits, d[i]...)
			out = append(out, Cond(lits[n:len(lits):len(lits)]))
		}
	}
	return out
}

// Key returns a canonical string for the (simplified) DNF, usable for
// memoisation.
func (d DNF) Key() string {
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = c.Key()
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// String renders the DNF.
func (d DNF) String() string {
	if len(d) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(d))
	for i, c := range d {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// Clone deep-copies the DNF.
func (d DNF) Clone() DNF {
	out := make(DNF, len(d))
	for i, c := range d {
		out[i] = c.Clone()
	}
	return out
}

// Stats summarises a DNF for cost estimation and experiment reporting.
type Stats struct {
	Clauses    int     // number of clauses
	Vars       int     // number of distinct variables
	MaxWidth   int     // longest clause
	AvgWidth   float64 // mean clause length
	VarsPerCls float64 // variable-to-clause ratio
}

// ComputeStats returns summary statistics of the DNF.
func (d DNF) ComputeStats() Stats {
	st := Stats{Clauses: len(d)}
	total := 0
	for _, c := range d {
		if len(c) > st.MaxWidth {
			st.MaxWidth = len(c)
		}
		total += len(c)
	}
	st.Vars = len(d.Vars())
	if len(d) > 0 {
		st.AvgWidth = float64(total) / float64(len(d))
		st.VarsPerCls = float64(st.Vars) / float64(len(d))
	}
	return st
}

// Condition restricts the DNF to the subspace where v=val: clauses
// binding v to a different value are dropped; literals v=val are
// removed from the remaining clauses. The result may contain the
// empty clause (TRUE).
func (d DNF) Condition(v ws.VarID, val int) DNF {
	out := make(DNF, 0, len(d))
	for _, c := range d {
		if bound, ok := c.Lookup(v); ok {
			if bound != val {
				continue
			}
			out = append(out, c.Without(v))
		} else {
			out = append(out, c)
		}
	}
	return out
}

// DropVar removes every clause that mentions v. This is the residual
// DNF under any assignment of v not mentioned in the DNF.
func (d DNF) DropVar(v ws.VarID) DNF {
	out := make(DNF, 0, len(d))
	for _, c := range d {
		if _, ok := c.Lookup(v); !ok {
			out = append(out, c)
		}
	}
	return out
}

// AndDNF conjoins two events: (∨ᵢ cᵢ) ∧ (∨ⱼ dⱼ) = ∨ᵢⱼ (cᵢ ∧ dⱼ),
// dropping inconsistent pairs. The result has at most |d|·|o| clauses;
// callers should Simplify it.
func (d DNF) AndDNF(o DNF) DNF {
	out := make(DNF, 0, len(d)*len(o))
	for _, c1 := range d {
		for _, c2 := range o {
			if c, ok := c1.And(c2); ok {
				out = append(out, c)
			}
		}
	}
	return out
}
